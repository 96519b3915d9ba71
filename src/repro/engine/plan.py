"""The compiled, batch-first evaluation engine.

The interpreter of :mod:`repro.core.runtime` follows the step relation of
Section 3 literally and pays for that fidelity on every call: each ``publish``
re-validates the transducer, re-extends the source instance with the register
relations at *every* node (copying the whole schema and relation table), and
re-evaluates rule queries from scratch even when the same ``(state, tag,
register)`` configuration repeats thousands of times.

:class:`Engine.compile` performs all per-transducer work once and returns a
:class:`PublishingPlan`:

* **dispatch** -- the rule for every ``(state, tag)`` pair is resolved to a
  tuple of compiled items with pre-bound query evaluators;
* **register schemas** -- the extended schemas making ``Reg`` / ``Reg_<tag>``
  visible are built once per ``(tag, arity)`` and shared across nodes, and
  register relations are overlaid on the source without copying it
  (:meth:`~repro.relational.instance.Instance.overlaid`);
* **memoised expansions** -- the transformation is *confluent*: the one-step
  expansion of a node depends only on its ``(state, tag, register)`` triple
  and the source instance, never on its ancestors (the stop condition is
  applied per path, outside the memo).  The plan caches expansions per
  instance, within and across runs, so repeated subtree configurations --
  ubiquitous in recursive views like the prerequisite hierarchy -- cost a
  dictionary lookup instead of a query evaluation.

Three evaluation modes share that machinery:

* :meth:`PublishingPlan.publish` -- the materialised Σ-tree of one instance
  (batches of instances share the plan's LRU-bounded per-instance caches);
* :meth:`PublishingPlan.publish_full` -- the interpreter-compatible
  :class:`~repro.core.runtime.TransformationResult` with the annotated tree;
* :meth:`PublishingPlan.publish_events` -- a lazy SAX-style event stream with
  virtual-tag elimination done on the fly, so Proposition 1 blow-ups can be
  serialised without ever materialising the tree.

These, plus the bytes-native :meth:`PublishingPlan.publish_bytes`, are the
core drivers the serving layer (:class:`repro.serve.ViewServer`) routes onto.

On instances carrying a dictionary encoding
(:func:`repro.relational.columnar.ensure_encoded`) the whole pipeline runs
in **integer space**: register contents and memo keys are frozensets of
encoded tuples, planned rule queries execute on the vectorized columnar
kernel with the registers fed through the encoded-override channel (no
overlay instance, no per-node schema extension), and values are decoded only
where text is emitted or sibling order consults the implicit order on ``D``.
Output is byte-identical with the encoding on or off.

Underneath all of them sits **incremental view maintenance**, with no mode
to select: an instance built by
:meth:`~repro.relational.instance.Instance.apply_delta` remembers its parent
(weakly) and the :class:`~repro.relational.delta.Delta` between them, so the
first publish of a child version migrates the parent's cached state instead
of starting cold.  Memoised expansions are invalidated *per rule*: only
``(state, tag, register)`` entries whose rule queries read a changed
relation are dropped (``cache_stats`` counts them as ``invalidated`` vs
``retained``), and whole previously-built subtrees and rendered spans are
reused when every configuration inside them provably re-expands the same
way.  :meth:`PublishingPlan.republish` adds the
:func:`~repro.xmltree.diff.diff_trees` edit script between the two
documents, which structural sharing keeps cheap.  Migrated output is always
equal -- tree- and byte-wise -- to a from-scratch publish on a fresh plan,
which stays the executable specification and differential oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.core.rules import GENERIC_REGISTER_NAME, RuleQuery, register_relation_name
from repro.core.runtime import (
    DEFAULT_MAX_NODES,
    AnnotatedNode,
    RegisterContent,
    TransformationLimitError,
    TransformationResult,
)
from repro.core.transducer import PublishingTransducer
from repro.core.virtual import eliminate_virtual_nodes, strip_annotations
from repro.query.planner import plan_query
from repro.relational.delta import Delta
from repro.relational.domain import DataValue, relation_to_text, tuple_order_key
from repro.relational.instance import Instance, Relation
from repro.relational.schema import RelationSchema, RelationalSchema
from repro.xmltree.diff import EditScript, diff_trees
from repro.xmltree.events import CloseEvent, OpenEvent, TextEvent, XmlEvent
from repro.xmltree.tree import TEXT_TAG, TreeNode

#: A node configuration: the triple the transformation is confluent over.
Triple = tuple[str, str, RegisterContent]

#: Largest configuration-set size a cached subtree may carry.  Bigger
#: subtrees are rebuilt from the (still memoised) expansions instead, which
#: bounds the bookkeeping cost of structural sharing on blow-up outputs.
_SUBTREE_TRIPLE_LIMIT = 4096

#: The pair set of cache values that no source delta can reach (shared, so
#: such values allocate nothing for it).
_NO_PAIRS: frozenset = frozenset()


def _shadowed_names(tag: str) -> frozenset[str]:
    """The relation names the register overlay shadows for ``tag``-nodes."""
    return frozenset({GENERIC_REGISTER_NAME, register_relation_name(tag)})


class _PairDelta:
    """How one rule's expansions respond to the current migration's delta.

    ``mode`` is one of ``"clean"`` (no rule query reads a changed relation:
    every register re-expands identically), ``"witness"`` (``dirty`` holds
    the register tuples that can participate in a changed derivation --
    computed once per rule by running the delta variants over the union of
    all invalidated registers -- so a register disjoint from it is provably
    unaffected; ``dirty_all`` marks register-independent changes),
    ``"variants"`` (witnesses unavailable: check each register with the
    per-occurrence delta plans) or ``"recompute"`` (unplanned or
    non-monotone rule queries: no cheap check exists).
    """

    __slots__ = ("mode", "checks", "dirty", "dirty_all")

    def __init__(self, mode, checks=None, dirty=None, dirty_all=False) -> None:
        self.mode = mode
        self.checks = checks
        self.dirty = dirty
        self.dirty_all = dirty_all


_PAIR_CLEAN = _PairDelta("clean")
_PAIR_RECOMPUTE = _PairDelta("recompute")


class _LineageCache:
    """One configuration cache of a version, split by what a delta can reach.

    The plan keeps three per version: expansions (keyed by triple), subtree
    entries (keyed by triple) and rendered spans (keyed by ``(indent,
    triple, level)``).  A value's *pairs* are the source-reading ``(state,
    tag)`` pairs -- rules that name a source relation, or that range over
    the active domain -- among the configurations it was built from.

    * ``stable`` holds values with no such pair.  They are functions of the
      configuration alone, valid in every version of the lineage, so the
      dict is shared by reference from parent to child and never copied.
    * ``versioned`` holds the rest; ``index`` maps each pair set to the
      ``versioned`` keys whose value covers exactly those pairs (views have
      a handful of distinct pair sets, so this is the pair -> keys index
      with each key filed once).

    A migration therefore costs a C-level copy of ``versioned`` plus one pop
    per key filed under a pair set that meets the invalidated pairs
    (:meth:`fork`).
    """

    __slots__ = ("stable", "versioned", "index")

    def __init__(self, stable=None, versioned=None, index=None) -> None:
        self.stable: dict = {} if stable is None else stable
        self.versioned: dict = {} if versioned is None else versioned
        self.index: dict[frozenset, set] = {} if index is None else index

    def get(self, key):
        """The value cached for ``key`` in either part, or ``None``."""
        found = self.stable.get(key)
        return self.versioned.get(key) if found is None else found

    def put(self, key, value, pairs: frozenset) -> None:
        """Store ``value``; ``pairs`` decides the part and the index keys."""
        if not pairs:
            self.stable[key] = value
            return
        keys = self.index.get(pairs)
        if keys is None:
            keys = self.index.setdefault(pairs, set())
        keys.add(key)
        # Indexed before visible: a fork copies ``versioned`` before the
        # index, so a concurrent put never leaves it an unindexed key.
        self.versioned[key] = value

    def fork(self, invalid_pairs: frozenset) -> tuple["_LineageCache", dict]:
        """The child version's cache, and the values it must not trust.

        Memo writes are lock-free, so a concurrent publish of the parent
        may grow these containers: only C-level snapshots are iterated, and
        ``versioned`` is copied before the index is read.
        """
        versioned = self.versioned.copy()
        index = {}
        doomed: set = set()
        for pairs, keys in list(self.index.items()):
            if pairs.isdisjoint(invalid_pairs):
                index[pairs] = keys.copy()
            else:
                doomed |= keys
        if not doomed:
            return _LineageCache(self.stable, versioned, index), {}
        if len(doomed) >= len(versioned):
            # Every versioned value covers an invalidated pair (typically a
            # recursive rule reading the changed relation): hand it over.
            # The index holds only keys of ``versioned``, except a key a
            # racing put indexed but had not stored at the copy; parking a
            # valid value as prior or suspect is safe, it confirms clean.
            popped, versioned = versioned, {}
        else:
            popped = {}
            for key in doomed:
                value = versioned.pop(key, None)
                if value is not None:
                    popped[key] = value
        return _LineageCache(self.stable, versioned, index), popped


def _fold_pairs(frame, pairs: frozenset, sensitive, owned: bool) -> None:
    """Fold a child's pairs and source-reading configurations into ``frame``.

    Carried up the frame stack like ``triples`` -- small-to-large when the
    child's set is ``owned`` and may be donated -- so no cache entry ever
    rescans its triples to learn which rules it depends on.  Callers pass
    non-empty ``pairs`` only; ``frame.sensitive`` is ``None`` while
    ``frame.pairs`` is empty.
    """
    if not frame.pairs:
        frame.pairs = pairs  # shared: pair sets are immutable
    elif not pairs <= frame.pairs:
        frame.pairs = frame.pairs | pairs
    mine = frame.sensitive
    if mine is None:
        frame.sensitive = sensitive if owned else set(sensitive)
    elif owned and len(mine) < len(sensitive):
        sensitive |= mine
        frame.sensitive = sensitive
    else:
        mine.update(sensitive)


def _frozen_sensitive(sensitive: set, triples: frozenset):
    """An entry's source-reading configurations, as stored on the entry.

    A tuple (only ever iterated), or the entry's own ``triples`` when every
    configuration reads the source -- deep recursive views, where a copy per
    entry would double the per-entry bookkeeping.
    """
    return triples if len(sensitive) == len(triples) else tuple(sensitive)


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the plan's expansion-cache counters.

    Attributes
    ----------
    hits:
        Expansions answered from the memo (including every expansion inside
        a structurally reused subtree).
    misses:
        Expansions that had to evaluate their rule queries.
    evictions:
        Whole per-instance caches dropped by the LRU policy.
    instances:
        Distinct per-instance caches created (including migrated versions).
    invalidated:
        Memoised expansions dropped when a child version's state migrated
        from its parent's, because their rule queries read a changed
        relation.
    retained:
        Memoised expansions carried over to a child version untouched.
    rendered_hits:
        Pre-rendered byte spans reused by the bytes-native publish path
        (:meth:`PublishingPlan.publish_bytes`).
    rendered_misses:
        Subtree spans the bytes path had to render from the expansions.
    migrations:
        Child versions whose state was migrated from their parent's.
    cold_starts:
        Child versions (built by ``apply_delta``) that started cold because
        their parent's state was missing: evicted, never published here,
        collected, or on a different encoder.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    instances: int = 0
    invalidated: int = 0
    retained: int = 0
    rendered_hits: int = 0
    rendered_misses: int = 0
    migrations: int = 0
    cold_starts: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of expansions answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """The counters as a plain dict (the pre-dataclass key set plus the
        incremental-maintenance counters and ``hit_rate``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "instances": self.instances,
            "invalidated": self.invalidated,
            "retained": self.retained,
            "rendered_hits": self.rendered_hits,
            "rendered_misses": self.rendered_misses,
            "migrations": self.migrations,
            "cold_starts": self.cold_starts,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class RepublishResult:
    """The outcome of one incremental republish step.

    ``tree`` equals (and serialises byte-identically to) a from-scratch
    publish of ``instance``; unchanged subtrees are shared by object
    identity with the previous tree.  ``edits`` is the
    :class:`~repro.xmltree.diff.EditScript` from the previous tree to
    ``tree``, so consumers can ship the diff instead of the document.
    ``invalidated`` / ``retained`` count the memoised expansions dropped
    vs carried over by this step.  A result can be passed back to
    :meth:`PublishingPlan.republish` as ``prev`` to chain updates.
    """

    instance: Instance
    tree: TreeNode
    edits: EditScript
    delta: Delta
    invalidated: int = 0
    retained: int = 0


class _CompiledItem:
    """One right-hand-side item with its evaluator pre-bound.

    The rule query is planned once at compile time through the shared
    :mod:`repro.query` planner; range-restricted queries bind directly to
    :meth:`QueryPlan.execute`, unsafe ones to the query's own (active-domain)
    evaluator.
    """

    __slots__ = ("state", "tag", "group_arity", "plan", "evaluate", "relations")

    def __init__(self, state: str, tag: str, rule_query: RuleQuery) -> None:
        self.state = state
        self.tag = tag
        self.group_arity = rule_query.group_arity
        self.plan = plan_query(rule_query.query)
        self.evaluate = (
            self.plan.execute if self.plan is not None else rule_query.query.evaluate
        )
        self.relations = frozenset(rule_query.query.relation_names())


class _SubtreeEntry:
    """A cached, context-free contribution of one configuration's subtree.

    ``nodes`` is what the subtree adds to its parent's child list (one
    element node, or the spliced children for a virtual tag); ``triples`` is
    every configuration occurring in the subtree, used both for
    stop-condition safety (the subtree may only be reused on a path disjoint
    from it); ``pairs`` is the set of source-reading ``(state, tag)`` pairs
    among them and ``sensitive`` the configurations in those pairs (see
    :func:`_frozen_sensitive`), which is all that invalidation and
    confirmation after a source delta look at;
    ``weight`` is the node-budget cost the subtree's traversal would have
    charged; ``saved`` is the number of expansions a reuse answers at once.
    """

    __slots__ = ("nodes", "triples", "pairs", "sensitive", "weight", "saved")

    def __init__(
        self,
        nodes: tuple[TreeNode, ...],
        triples: frozenset[Triple],
        pairs: frozenset[tuple[str, str]],
        sensitive: tuple[Triple, ...] | frozenset[Triple],
        weight: int,
        saved: int,
    ) -> None:
        self.nodes = nodes
        self.triples = triples
        self.pairs = pairs
        self.sensitive = sensitive
        self.weight = weight
        self.saved = saved


class _InstanceState:
    """Everything the plan caches for one source instance.

    ``expansions``, ``subtrees`` (:class:`_SubtreeEntry` values) and
    ``renders`` (the bytes path's rendered spans, see
    :mod:`repro.engine.emit`, keyed by ``(indent, triple, level)``) are
    :class:`_LineageCache` s.  Values built only from rules that read no
    source relation sit in their ``stable`` part, which every version of
    the lineage shares; the rest are versioned and indexed by the
    source-reading pairs they cover.

    A migration from the parent version's state (:meth:`PublishingPlan.
    _migrated_state`) moves the versioned expansions of invalidated pairs
    to ``prior_expansions`` and the entries covering them to ``suspects`` /
    ``render_suspects``.  Suspects are confirmed lazily: a suspect whose
    configurations in invalidated pairs all re-expand exactly as the
    previous version memoised them is promoted back, anything else is
    dropped.  Suspects live for one migration generation only -- the next
    migration discards whatever was never confirmed.  The cost model: the
    stable parts are shared by reference, the versioned parts are copied
    in C, and Python-level work is one pop per value in an invalidated
    pair -- proportional to what the delta can reach, not to the cache.

    ``text_fragments`` memoises escaped character data per row register
    (the encoded pipeline interns fragments on the shared encoder instead,
    so they survive version migrations for free); it carries over across
    migrations unconditionally because a text node's rendering is a
    function of its register alone, never of the source instance.
    ``invalidated`` / ``retained`` count the expansions that migration
    dropped and kept (both zero on a cold start).
    """

    __slots__ = (
        "instance",
        "encoder",
        "ext_schemas",
        "expansions",
        "subtrees",
        "suspects",
        "renders",
        "render_suspects",
        "text_fragments",
        "prior_expansions",
        "invalid_pairs",
        "prior_instance",
        "delta",
        "pair_checks",
        "invalidated",
        "retained",
    )

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        # When the instance carries a dictionary encoding, the whole
        # pipeline for it runs in integer space: register contents and memo
        # keys are frozensets of encoded tuples, planned rule queries run on
        # the columnar kernel, and values are decoded only where text is
        # emitted.  Ids are stable across apply_delta migrations (the
        # encoder is append-only and shared along the version lineage), so
        # encoded memo entries survive the migration to a child version.
        self.encoder = instance._encoding
        self.ext_schemas: dict[tuple[str, int], RelationalSchema] = {}
        self.expansions = _LineageCache()
        self.subtrees = _LineageCache()
        self.suspects: dict[Triple, _SubtreeEntry] = {}
        self.renders = _LineageCache()
        self.render_suspects: dict[tuple, object] = {}
        self.text_fragments: dict[RegisterContent, str] = {}
        self.prior_expansions: dict[Triple, tuple[Triple, ...]] = {}
        self.invalid_pairs: frozenset[tuple[str, str]] = frozenset()
        self.prior_instance: Instance | None = None
        self.delta: Delta | None = None
        # Per-(state, tag) delta-check machinery for this migration's delta:
        # a list of (DeltaPlan, touched relations) or None for rules whose
        # queries cannot be checked cheaply (unplanned / non-monotone).
        self.pair_checks: dict[tuple[str, str], list | None] = {}
        self.invalidated = 0
        self.retained = 0


class _Frame:
    """One node of the depth-first construction (tree and event modes).

    ``triples`` accumulates the configurations of the subtree while it is
    still shareable; it flips to ``None`` -- poisoning every ancestor -- when
    a stop-condition hit makes the subtree path-dependent or the set
    outgrows :data:`_SUBTREE_TRIPLE_LIMIT`.  ``pairs`` / ``sensitive`` are
    the source-reading subset of it (see :func:`_fold_pairs`), which tree
    mode fills in for its subtree entries.  ``weight`` and ``opened`` feed
    the cached entry's budget charge and hit accounting.
    """

    __slots__ = (
        "triple",
        "expansion",
        "index",
        "built",
        "text",
        "stopped",
        "triples",
        "pairs",
        "sensitive",
        "weight",
        "opened",
    )

    def __init__(
        self,
        triple: Triple,
        expansion: tuple[Triple, ...],
        text: str | None,
        stopped: bool,
    ) -> None:
        self.triple = triple
        self.expansion = expansion
        self.index = 0
        self.built: list[TreeNode] = []
        self.text = text
        self.stopped = stopped
        self.triples: set[Triple] | None = None if stopped else {triple}
        self.pairs = _NO_PAIRS
        self.sensitive: set[Triple] | None = None
        self.weight = len(expansion)
        self.opened = 1


class _Cursor:
    """The traversal invariant shared by all three evaluation modes.

    One cursor per run owns the stop-condition path, the node-budget
    accounting and the text extraction, so the tree, event and annotated
    drivers cannot diverge on those semantics.
    """

    __slots__ = ("_plan", "_state", "_budget", "_path", "produced")

    def __init__(self, plan: "PublishingPlan", state: "_InstanceState", budget: int) -> None:
        self._plan = plan
        self._state = state
        self._budget = budget
        self._path: set[Triple] = set()
        self.produced = 1

    def charge(self, count: int) -> None:
        """Account for ``count`` produced nodes against the budget."""
        self.produced += count
        if self.produced > self._budget:
            raise TransformationLimitError(
                f"transformation exceeded the node budget of {self._budget} nodes; "
                f"raise max_nodes if the blow-up is intended"
            )

    def path_disjoint(self, triples: frozenset[Triple]) -> bool:
        """True when no configuration of ``triples`` lies on the current path."""
        return self._path.isdisjoint(triples)

    def open(self, triple: Triple) -> _Frame:
        """Enter a node: stop condition, memoised expansion, budget, path push."""
        if triple in self._path:
            return _Frame(triple, (), None, stopped=True)
        expansion = self._plan._expansion(self._state, triple)
        self.charge(len(expansion))
        if triple[1] == TEXT_TAG:
            register = triple[2]
            encoder = self._state.encoder
            if encoder is not None:
                register = encoder.decode_rows(register)
            text = relation_to_text(register)
        else:
            text = None
        self._path.add(triple)
        return _Frame(triple, expansion, text, stopped=False)

    def close(self, frame: _Frame) -> None:
        """Leave a node: pop it from the stop-condition path."""
        if not frame.stopped:
            self._path.remove(frame.triple)


class PublishingPlan:
    """A transducer compiled for repeated evaluation.  Built by :class:`Engine`."""

    def __init__(
        self,
        transducer: PublishingTransducer,
        schema: RelationalSchema | None = None,
        max_nodes: int = DEFAULT_MAX_NODES,
        cache_instances: int = 8,
    ) -> None:
        if schema is not None:
            problems = transducer.validate_against_schema(schema)
            if problems:
                raise ValueError("; ".join(problems))
        self._transducer = transducer
        self._schema = schema
        self._max_nodes = max_nodes
        self._cache_instances = max(1, cache_instances)
        self._virtual = transducer.virtual_tags
        self._start_state = transducer.start_state
        self._root_tag = transducer.root_tag
        self._dispatch_table: dict[tuple[str, str], tuple[_CompiledItem, ...]] = {}
        # Source relations read per (state, tag): the invalidation index of
        # incremental republish.  Only the two names the overlay actually
        # shadows for this rule's tag are excluded -- a source relation that
        # happens to be called ``Reg_<other>`` is still a source dependency.
        self._pair_sources: dict[tuple[str, str], frozenset[str]] = {}
        # Pairs with an unplanned rule query: it is evaluated over the
        # active domain, which any delta may change, so it reads every
        # relation whether it names it or not.
        self._domain_pairs: set[tuple[str, str]] = set()
        for rule_ in transducer.rules:
            pair = (rule_.state, rule_.tag)
            items = tuple(
                _CompiledItem(item.state, item.tag, item.query) for item in rule_.items
            )
            self._dispatch_table[pair] = items
            shadowed = _shadowed_names(rule_.tag)
            sources: set[str] = set()
            for item in rule_.items:
                sources.update(item.query.query.relation_names() - shadowed)
            self._pair_sources[pair] = frozenset(sources)
            if any(item.plan is None for item in items):
                self._domain_pairs.add(pair)
        # The pair set a configuration of each source-reading pair brings
        # into the cache values built from it, keyed tag -> state so the
        # per-node lookup is one string probe for the tags of no such pair.
        self._pair_sets: dict[str, dict[str, frozenset[tuple[str, str]]]] = {}
        for (state_q, tag), sources in self._pair_sources.items():
            if sources or (state_q, tag) in self._domain_pairs:
                self._pair_sets.setdefault(tag, {})[state_q] = frozenset(
                    {(state_q, tag)}
                )
        # Per-instance caches in LRU order (the batch-first working set).
        # The lock guards the LRU structure and the counters below so
        # concurrent publish() calls (ViewServer with a pool, threaded
        # callers) neither corrupt the eviction order nor tear counter
        # updates.  Memo *values* need no lock: expansions are pure
        # functions of (triple, instance), so racing writers store the
        # same result and CPython dict operations are atomic.
        self._lock = threading.RLock()
        self._states: dict[Instance, _InstanceState] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._instances_seen = 0
        self._invalidated = 0
        self._retained = 0
        self._render_hits = 0
        self._render_misses = 0
        self._migrations = 0
        self._cold_starts = 0
        # Byte-template tables of the bytes-native publish path, one per
        # indent mode (repro.engine.emit._Templates); tag sets are
        # per-transducer, so per-plan caching is exactly right.
        self._templates: dict[int | None, object] = {}

    # -- process-boundary support --------------------------------------------

    def __getstate__(self):
        """Pickle only the compiled core: no caches, no lock, zero counters.

        This is what ``repro.parallel`` ships to a worker once per plan:
        the transducer, dispatch table and query plans cross the process
        boundary; per-instance memo/render caches are rebuilt worker-side
        (they are keyed by instance objects that do not cross), and the
        counters start at zero so a worker copy reports only its own work.
        """
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_states"] = {}
        state["_templates"] = {}
        for counter in (
            "_hits",
            "_misses",
            "_evictions",
            "_instances_seen",
            "_invalidated",
            "_retained",
            "_render_hits",
            "_render_misses",
            "_migrations",
            "_cold_starts",
        ):
            state[counter] = 0
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- introspection -------------------------------------------------------

    @property
    def transducer(self) -> PublishingTransducer:
        """The compiled transducer."""
        return self._transducer

    @property
    def max_nodes(self) -> int:
        """The default node budget of this plan."""
        return self._max_nodes

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the shared expansion cache, as a typed
        :class:`CacheStats` (use :meth:`CacheStats.as_dict` for a plain dict)."""
        with self._lock:
            return CacheStats(
                self._hits,
                self._misses,
                self._evictions,
                self._instances_seen,
                self._invalidated,
                self._retained,
                self._render_hits,
                self._render_misses,
                self._migrations,
                self._cold_starts,
            )

    def clear_cache(self) -> None:
        """Drop all per-instance caches (counters are preserved)."""
        with self._lock:
            self._states.clear()

    def _pairs_of(self, state: str, tag: str) -> frozenset[tuple[str, str]]:
        """The source-reading pairs a ``(state, tag, ...)`` node brings into
        the cache values built from it: its own pair, or none."""
        by_state = self._pair_sets.get(tag)
        return by_state.get(state, _NO_PAIRS) if by_state else _NO_PAIRS

    def rule_plans(self):
        """Yield ``(state, tag, item_index, QueryPlan | None)`` per rule item.

        One entry per right-hand-side item of every declared rule, in
        declaration order; the query plan is ``None`` for items whose rule
        query could not be planned (unsafe queries evaluated naively).  This
        is the introspection hook behind the serving layer's
        :class:`~repro.serve.stats.ExplainReport`, which aggregates each
        plan's join order, backend and delta strategy into one report.
        The table is snapshotted first: dispatch lazily inserts entries for
        undeclared pairs, so a publish interleaved with this iteration must
        not blow it up.
        """
        for (state, tag), items in list(self._dispatch_table.items()):
            for index, item in enumerate(items):
                yield state, tag, index, item.plan

    # -- the public evaluation surface --------------------------------------

    def publish(self, instance: Instance, max_nodes: int | None = None) -> TreeNode:
        """Evaluate on ``instance`` and return the output Σ-tree ``tau(I)``."""
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        return self._build_tree(state, budget)

    def publish_full(
        self, instance: Instance, max_nodes: int | None = None
    ) -> TransformationResult:
        """Evaluate and return the interpreter-compatible full result object."""
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        root, steps = self._build_annotated(state, budget)
        tree = eliminate_virtual_nodes(strip_annotations(root), self._virtual)
        return TransformationResult(self._transducer, instance, root, tree, steps)

    def publish_events(
        self, instance: Instance, max_nodes: int | None = None
    ) -> Iterator[XmlEvent]:
        """Lazily yield the SAX-style event stream of the output Σ-tree.

        Virtual tags are eliminated on the fly: they contribute no events,
        only their (recursively streamed) children.  The traversal itself
        holds one frame per level, so no part of the output tree is ever
        materialised; note that the expansion memo still grows with the
        number of *distinct* ``(state, tag, register)`` configurations (call
        :meth:`clear_cache` between streams to bound it).
        """
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        return self._stream_events(state, budget)

    def publish_bytes(
        self,
        instance: Instance,
        indent: int | None = 2,
        write=None,
        max_nodes: int | None = None,
    ) -> str:
        """Serialise the output document without materialising the tree.

        The bytes-native driver (:mod:`repro.engine.emit`): constant byte
        skeletons (`<tag>`, indentation, closers) are preassembled per tag
        and level, character data is answered from interned escaped
        fragments (per register, on the shared dictionary encoder when the
        instance is encoded), and the rendered span of every clean subtree
        is cached per ``(state, tag, register)`` configuration -- migrated
        to child versions exactly like the structural subtree cache, so a
        publish after a commit re-renders only invalidated spans and a
        cache-hot publish is a buffer handoff.  Output is byte-identical to
        serialising :meth:`publish` / :meth:`publish_events` with the
        matching ``indent`` (``indent=None`` matches the compact
        serialiser); stop-condition and node-budget semantics are those of
        tree mode.  As with the streaming serialisers, a supplied ``write``
        receives the document (one chunk here) and the return value is
        ``""``.
        """
        from repro.engine.emit import render_document

        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        document = render_document(self, state, budget, indent)
        if write is not None:
            write(document)
            return ""
        return document

    # -- incremental maintenance ----------------------------------------------

    def republish(
        self,
        prev: "Instance | RepublishResult",
        delta: Delta,
        *,
        prev_tree: TreeNode | None = None,
        max_nodes: int | None = None,
    ) -> RepublishResult:
        """Publish the version ``delta`` yields and diff it against ``prev``.

        ``prev`` is the previously published instance (or the
        :class:`RepublishResult` of the previous step, which chains
        naturally).  This is :meth:`Instance.apply_delta` plus
        :meth:`publish` plus :func:`~repro.xmltree.diff.diff_trees`: the
        child version's publish migrates the previous version's caches by
        itself.  ``prev_tree`` (the previously published tree) is the edit
        script's base; when omitted it is recovered with :meth:`publish`,
        which also warms the previous version's state for the migration.
        """
        if isinstance(prev, RepublishResult):
            if prev_tree is None:
                prev_tree = prev.tree
            prev = prev.instance
        if prev_tree is None:
            prev_tree = self.publish(prev, max_nodes)
        delta = delta.normalized(prev)
        instance = prev.apply_delta(delta)
        if instance is prev:
            return RepublishResult(prev, prev_tree, EditScript(), delta)
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        tree = self._build_tree(state, budget)
        return RepublishResult(
            instance,
            tree,
            diff_trees(prev_tree, tree),
            delta,
            state.invalidated,
            state.retained,
        )

    def _migrated_state(
        self,
        prev_state: _InstanceState,
        new_instance: Instance,
        delta: Delta,
    ) -> _InstanceState:
        """Carry a version's caches over to the updated instance.

        Expansions of ``(state, tag)`` pairs whose rule queries read a
        changed relation move to ``prior_expansions``; they are confirmed
        lazily -- cheaply through the per-occurrence delta plans when
        possible (:meth:`_delta_preserves`), by recompute-and-compare
        otherwise -- so unaffected memo entries and subtrees survive.
        Everything else is retained outright.  Subtree and rendered-span
        entries covering an invalidated pair become suspects pending that
        confirmation.

        Cost: each :class:`_LineageCache` shares its stable part, copies
        its versioned part in C and pops only the keys indexed under the
        invalidated pairs, so the Python-level work is proportional to the
        entries the delta can reach, not to the size of the cache.
        """
        invalid_pairs = self._invalidated_pairs(delta)
        state = _InstanceState(new_instance)
        state.prior_instance = prev_state.instance
        state.delta = delta
        # The schema is unchanged by a delta, so the overlay schemas carry
        # over; sharing the dict lets both versions warm it further.
        state.ext_schemas = prev_state.ext_schemas
        with self._lock:
            state.expansions, prior = prev_state.expansions.fork(invalid_pairs)
            state.subtrees, state.suspects = prev_state.subtrees.fork(invalid_pairs)
            state.renders, state.render_suspects = prev_state.renders.fork(
                invalid_pairs
            )
        state.prior_expansions = prior
        state.invalid_pairs = invalid_pairs
        # Text rendering is a function of the register alone; fragments
        # survive every delta.  (Encoded lineages intern on the encoder.)
        state.text_fragments = prev_state.text_fragments
        state.invalidated = len(prior)
        state.retained = len(state.expansions.stable) + len(
            state.expansions.versioned
        )
        return state

    def _invalidated_pairs(self, delta: Delta) -> frozenset[tuple[str, str]]:
        """The ``(state, tag)`` pairs whose expansions ``delta`` may change:
        those reading a changed relation, and those reading the domain."""
        changed = delta.touched_relations()
        return frozenset(
            pair
            for pair, sources in self._pair_sources.items()
            if sources & changed or pair in self._domain_pairs
        )

    def _confirm(self, state: _InstanceState, entry) -> bool:
        """Confirm a migrated cache entry: every configuration of the entry
        belonging to an invalidated ``(state, tag)`` pair must re-expand --
        memoised, so the work is shared across entries -- exactly as the
        previous version memoised it (a configuration the previous version
        never memoised fails).  Only the entry's source-reading
        configurations are visited, never its whole triple set."""
        prior = state.prior_expansions
        invalid_pairs = state.invalid_pairs
        for t in entry.sensitive:
            if (t[0], t[1]) in invalid_pairs:
                if self._expansion(state, t) != prior.get(t):
                    return False
        return True

    def _subtree_entry(
        self, state: _InstanceState, cursor: _Cursor, triple: Triple
    ) -> _SubtreeEntry | None:
        """A reusable cached subtree for ``triple``, or ``None``.

        Suspects (entries parked by a migration) are confirmed here
        (:meth:`_confirm`) and promoted back into the cache.  Reuse
        additionally requires the current root-to-node path to be disjoint
        from the subtree's configurations, which keeps the stop condition
        exact.
        """
        cache = state.subtrees
        entry = cache.stable.get(triple)
        if entry is None and cache.versioned:
            entry = cache.versioned.get(triple)
        if entry is None:
            if not state.suspects:
                return None
            entry = state.suspects.pop(triple, None)
            if entry is None:
                return None
            if not self._confirm(state, entry):
                return None
            cache.put(triple, entry, entry.pairs)
        if not cursor.path_disjoint(entry.triples):
            return None
        return entry

    def _delta_preserves(self, state: _InstanceState, triple: Triple) -> bool:
        """Cheap sufficient check that ``triple`` re-expands identically.

        The semi-naive device of :mod:`repro.query.delta`, applied at the
        rule level: for every rule query reading a changed relation, the
        per-occurrence delta variants are run with the (tiny) changed tuple
        sets -- insertions against the updated overlay, deletions against
        the previous version's overlay.  Monotonicity bounds the query's
        answer changes by those candidate sets, so when every variant comes
        back empty the answers -- and hence the grouped expansion -- are
        provably unchanged without re-evaluating any full rule query.
        Returns ``False`` (meaning *unknown*, not *changed*) for unplanned
        or non-monotone rule queries.
        """
        delta = state.delta
        if delta is None or state.prior_instance is None:
            return False
        q, tag, register = triple
        if tag == TEXT_TAG:
            return True  # the expansion is () on every instance
        pair = (q, tag)
        info = state.pair_checks.get(pair)
        if info is None:
            info = self._pair_delta_info(state, pair, delta)
            state.pair_checks[pair] = info
        mode = info.mode
        if mode == "clean":
            return True
        if mode == "recompute":
            return False
        if mode == "witness":
            return not info.dirty_all and register.isdisjoint(info.dirty)
        # "variants": run the per-occurrence delta plans against this node's
        # overlays; empty candidates on every occurrence prove the answers
        # (and hence the expansion) unchanged.
        if state.encoder is not None:
            return self._variants_clean_encoded(state, tag, register, info, delta)
        new_overlay = self._overlay(state, tag, register)
        old_overlay: Instance | None = None
        for machinery, touched in info.checks:
            name = machinery.delta_name
            for relation in touched:
                inserted = delta.inserted_into(relation)
                if inserted:
                    for variant in machinery.variants[relation]:
                        if variant.execute(new_overlay, {name: inserted}):
                            return False
                deleted = delta.deleted_from(relation)
                if deleted:
                    if old_overlay is None:
                        old_overlay = self._overlay(
                            state, tag, register, base=state.prior_instance
                        )
                    for variant in machinery.variants[relation]:
                        if variant.execute(old_overlay, {name: deleted}):
                            return False
        return True

    def _variants_clean_encoded(
        self, state: _InstanceState, tag: str, register, info, delta: Delta
    ) -> bool:
        """The "variants" check of :meth:`_delta_preserves` in integer space.

        The register stays encoded and is fed to the delta variants through
        the encoded-override channel (shadowing both register names), with
        the tiny delta change sets interned on the fly; insertions run
        against the updated instance, deletions against the previous one.
        """
        encoder = state.encoder
        prior = state.prior_instance
        if prior is None or prior._encoding is not encoder:
            return False
        specific = register_relation_name(tag)
        reg_overrides = {GENERIC_REGISTER_NAME: register, specific: register}
        for machinery, touched in info.checks:
            name = machinery.delta_name
            for relation in touched:
                for rows, source in (
                    (delta.inserted_into(relation), state.instance),
                    (delta.deleted_from(relation), prior),
                ):
                    if not rows:
                        continue
                    encoded = encoder.encode_rows(rows)
                    overrides = {**reg_overrides, name: encoded}
                    for variant in machinery.variants[relation]:
                        if variant.vector_kernel() is None:
                            return False
                        if variant.execute_encoded(source, overrides):
                            return False
        return True

    def _pair_delta_info(
        self, state: _InstanceState, pair: tuple[str, str], delta: Delta
    ) -> _PairDelta:
        """Classify one rule's sensitivity to the migration delta.

        Computed once per migration generation.  When every affected rule
        query admits register witnesses, the delta variants run *once per
        rule* -- the register scans overridden by the union of every
        invalidated register of this rule, insertions against the updated
        source and deletions against the previous one -- and the projected
        witness tuples become the ``dirty`` register index, making the
        per-register check a set-disjointness test.
        """
        items = self._dispatch(*pair)
        if not items:
            return _PAIR_CLEAN
        changed = delta.touched_relations()
        shadowed = _shadowed_names(pair[1])
        checks: list[tuple] = []
        for item in items:
            plan = item.plan
            if plan is None:
                # Unplanned (naive-evaluated) query: no cheap check exists,
                # and its active domain may have changed with any delta.
                return _PAIR_RECOMPUTE
            machinery = plan._delta_plan()
            # Scans of the shadowed names read the register, never the
            # source, so a source delta on them cannot affect this rule.
            touched = (changed - shadowed) & machinery.relations
            if not touched:
                continue
            if not machinery.monotone:
                return _PAIR_RECOMPUTE
            checks.append((machinery, touched))
        if not checks:
            return _PAIR_CLEAN
        witnessed = []
        for machinery, touched in checks:
            witnesses = machinery.register_witnesses(shadowed)
            if witnesses is None:
                return _PairDelta("variants", checks=tuple(checks))
            witnessed.append((machinery, touched, witnesses))
        state_q, tag = pair
        pool: set[tuple[DataValue, ...]] = set()
        for triple in state.prior_expansions:
            if triple[0] == state_q and triple[1] == tag:
                pool |= triple[2]
        reg_rows = frozenset(pool)
        specific = register_relation_name(tag)
        dirty: set[tuple[DataValue, ...]] = set()
        dirty_all = False
        encoder = state.encoder
        if encoder is not None and (
            state.prior_instance is None
            or state.prior_instance._encoding is not encoder
        ):
            # Mixed-encoding lineage (migration checks the encoder):
            # no cheap per-register check is trustworthy.
            return _PAIR_RECOMPUTE
        for machinery, touched, witnesses in witnessed:
            name = machinery.delta_name
            for relation in touched:
                for rows, source in (
                    (delta.inserted_into(relation), state.instance),
                    (delta.deleted_from(relation), state.prior_instance),
                ):
                    if not rows or source is None:
                        continue
                    if encoder is not None:
                        # Encoded pipeline: the register pool is already in
                        # integer space; intern the delta rows and keep the
                        # dirty index encoded so the per-register check is
                        # an integer set-disjointness test.
                        overrides = {
                            name: encoder.encode_rows(rows),
                            GENERIC_REGISTER_NAME: reg_rows,
                            specific: reg_rows,
                        }
                        for variant, specs in witnesses[relation]:
                            if variant.vector_kernel() is None:
                                return _PAIR_RECOMPUTE
                            if not specs:
                                if variant.execute_encoded(source, overrides):
                                    dirty_all = True
                            else:
                                for spec in specs:
                                    dirty |= spec.tuples_encoded(
                                        encoder, source, overrides
                                    )
                        continue
                    overrides = {
                        name: rows,
                        GENERIC_REGISTER_NAME: reg_rows,
                        specific: reg_rows,
                    }
                    for variant, specs in witnesses[relation]:
                        if not specs:
                            if variant.execute(source, overrides):
                                dirty_all = True
                        else:
                            for spec in specs:
                                dirty |= spec.tuples(source, overrides)
        return _PairDelta("witness", dirty=frozenset(dirty), dirty_all=dirty_all)

    # -- instance cache -------------------------------------------------------

    def holds_parent_state(self, instance: Instance) -> bool:
        """Whether publishing ``instance`` here would migrate its parent's
        cached state (see :meth:`_instance_state`) rather than start cold.

        False when ``instance`` already has its own state: that publish is
        a cache hit, not a migration.
        """
        lineage = instance._lineage
        if lineage is None:
            return False
        parent = lineage[0]()
        with self._lock:
            if instance in self._states or parent is None:
                return False
            prev_state = self._states.get(parent)
        return prev_state is not None and prev_state.encoder is instance._encoding

    def _instance_state(self, instance: Instance) -> _InstanceState:
        """The per-instance cache of ``instance``: cached, migrated or new.

        On a miss, an instance built by :meth:`Instance.apply_delta` whose
        parent's state is still in the LRU -- and on the same encoder --
        inherits it through :meth:`_migrated_state`, so every publish of a
        child version is an incremental republish.  Otherwise (no lineage,
        parent collected or evicted, representation changed by a late
        ``ensure_encoded``) the state starts cold; a child version starting
        cold is counted in ``cache_stats.cold_starts``.
        """
        prev_state = None
        with self._lock:
            state = self._states.get(instance)
            if state is not None:
                # Reinsert so eviction is least-recently-used, not
                # first-inserted.  Held under the lock: a concurrent reader
                # between the del and the reinsert would miss the state and
                # build a duplicate, splitting the memo.
                del self._states[instance]
                self._states[instance] = state
                return state
            if instance._lineage is not None:
                parent_ref, delta = instance._lineage
                parent = parent_ref()
                if parent is not None:
                    prev_state = self._states.get(parent)
        migrated = prev_state is not None and prev_state.encoder is instance._encoding
        if migrated:
            state = self._migrated_state(
                prev_state, instance, delta.normalized(parent)
            )
        else:
            problems = self._transducer.validate_against_schema(instance.schema)
            if problems:
                raise ValueError("; ".join(problems))
            state = _InstanceState(instance)
        with self._lock:
            # A racing thread may have installed a state meanwhile; adopt
            # theirs so both publishes share one memo.
            existing = self._states.get(instance)
            if existing is not None:
                return existing
            self._states[instance] = state
            self._instances_seen += 1
            if migrated:
                self._migrations += 1
            elif instance._lineage is not None:
                self._cold_starts += 1
            self._invalidated += state.invalidated
            self._retained += state.retained
            while len(self._states) > self._cache_instances:
                del self._states[next(iter(self._states))]
                self._evictions += 1
        return state

    # -- dispatch and expansion ----------------------------------------------

    def _dispatch(self, state: str, tag: str) -> tuple[_CompiledItem, ...]:
        key = (state, tag)
        found = self._dispatch_table.get(key)
        if found is None:
            # Undeclared (state, tag) pairs behave as empty rules.
            found = ()
            self._dispatch_table[key] = found
        return found

    def _expansion(self, state: _InstanceState, triple: Triple) -> tuple[Triple, ...]:
        """The memoised one-step expansion of a configuration.

        Confluence (each node's children depend only on its own state, tag
        and register) makes this a pure function of ``(triple, instance)``;
        the stop condition is applied by the callers per root-to-node path.
        """
        q, tag, register = triple
        # The part is known from the pair alone: one probe, never two.
        by_state = self._pair_sets.get(tag)
        pairs = by_state.get(q) if by_state else None
        cache = state.expansions
        memo = cache.versioned if pairs else cache.stable
        found = memo.get(triple)
        if found is not None:
            with self._lock:
                self._hits += 1
            return found
        prior = state.prior_expansions.get(triple) if pairs else None
        if prior is not None and self._delta_preserves(state, triple):
            # Semi-naive adoption: the delta provably leaves this rule's
            # answers unchanged, so the previous version's expansion is
            # promoted without evaluating any full rule query.
            cache.put(triple, prior, pairs)
            with self._lock:
                self._hits += 1
            return prior
        with self._lock:
            self._misses += 1
        items = self._dispatch(q, tag)
        if not items or tag == TEXT_TAG:
            result: tuple[Triple, ...] = ()
        elif state.encoder is not None:
            result = self._expand_encoded(state, tag, register, items)
        else:
            extended = self._overlay(state, tag, register)
            children: list[Triple] = []
            for item in items:
                answers = item.evaluate(extended)
                if not answers:
                    continue
                group_arity = item.group_arity
                if group_arity == 0:
                    children.append((item.state, item.tag, frozenset(answers)))
                    continue
                groups: dict[tuple[DataValue, ...], set[tuple[DataValue, ...]]] = {}
                for row in answers:
                    groups.setdefault(row[:group_arity], set()).add(row)
                if len(groups) == 1:
                    # Ubiquitous on recursive views (one child per step):
                    # nothing to order, skip the sort-key construction.
                    children.append(
                        (item.state, item.tag, frozenset(next(iter(groups.values()))))
                    )
                    continue
                for key in sorted(groups, key=tuple_order_key):
                    children.append((item.state, item.tag, frozenset(groups[key])))
            result = tuple(children)
        if pairs:
            cache.put(triple, result, pairs)
        else:
            memo[triple] = result
        return result

    def _expand_encoded(
        self,
        state: _InstanceState,
        tag: str,
        register: RegisterContent,
        items: tuple[_CompiledItem, ...],
    ) -> tuple[Triple, ...]:
        """One-step expansion with registers and answers in integer space.

        Planned rule queries run on the columnar kernel with the (already
        encoded) register supplied through the encoded-override channel --
        no overlay instance, no extended schema, no relation re-wrapping.
        Unplannable queries fall back to the row pipeline: the register is
        decoded, the classic overlay built, and the naive answers
        re-encoded, so both kinds of item agree on the integer register
        representation.  Sibling order is decoded per *group key* only
        (the implicit order on ``D`` is an order on values, not on ids).
        """
        encoder = state.encoder
        specific = register_relation_name(tag)
        overrides = {GENERIC_REGISTER_NAME: register, specific: register}
        extended: Instance | None = None
        children: list[Triple] = []
        for item in items:
            plan = item.plan
            if plan is not None and plan.vector_kernel() is not None:
                answers = plan.execute_encoded(state.instance, overrides)
            else:
                if extended is None:
                    decoded = encoder.decode_rows(register)
                    extended = self._overlay(state, tag, decoded)
                answers = encoder.encode_rows(item.evaluate(extended))
            if not answers:
                continue
            group_arity = item.group_arity
            if group_arity == 0:
                children.append((item.state, item.tag, frozenset(answers)))
                continue
            groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
            for row in answers:
                groups.setdefault(row[:group_arity], set()).add(row)
            if len(groups) == 1:
                children.append(
                    (item.state, item.tag, frozenset(next(iter(groups.values()))))
                )
                continue
            # The implicit order on D is an order on values, not on ids;
            # the encoder memoises one order key per id so repeated sorts
            # never rebuild the type-rank tuples.
            for key in sorted(groups, key=encoder.row_order_key):
                children.append((item.state, item.tag, frozenset(groups[key])))
        return tuple(children)

    def _overlay(
        self,
        state: _InstanceState,
        tag: str,
        register: RegisterContent,
        base: Instance | None = None,
    ) -> Instance:
        """The source extended with the register relations -- without copying it.

        ``base`` substitutes another source of the same schema (the previous
        version, when the delta checks of :meth:`_delta_preserves` need the
        pre-update overlay); the overlay schemas are shared either way.
        """
        if register:
            arity = len(next(iter(register)))
        else:
            arity = self._transducer.register_arity(tag)
        specific = register_relation_name(tag)
        key = (tag, arity)
        schema = state.ext_schemas.get(key)
        if schema is None:
            schema = state.instance.schema.extended(
                [RelationSchema(GENERIC_REGISTER_NAME, arity), RelationSchema(specific, arity)]
            )
            state.ext_schemas[key] = schema
        if base is None:
            base = state.instance
            # Read on first use only (and cached on the instance): the
            # encoded pipeline never builds an overlay, so never pays for it.
            domain = base.active_domain()
            if register:
                domain = domain | {value for row in register for value in row}
        else:
            domain = None  # planned delta variants never scan the domain
        # Registers are already-validated query answers: build both overlay
        # relations through the trusted constructor, sharing one frozenset.
        rows = register if isinstance(register, frozenset) else frozenset(register)
        return base.overlaid(
            {
                GENERIC_REGISTER_NAME: Relation._from_frozenset(
                    GENERIC_REGISTER_NAME, arity, rows
                ),
                specific: Relation._from_frozenset(specific, arity, rows),
            },
            schema,
            domain,
        )

    # -- evaluation drivers ---------------------------------------------------

    def _root_triple(self) -> Triple:
        return (self._start_state, self._root_tag, frozenset())

    def _cursor(self, state: _InstanceState, budget: int) -> "_Cursor":
        return _Cursor(self, state, budget)

    def _build_tree(self, state: _InstanceState, budget: int) -> TreeNode:
        """Materialise the output Σ-tree (iterative, virtual splicing inline).

        Structural sharing: the contribution of every "clean" subtree (no
        stop-condition interference, configuration set within bounds) is
        cached per configuration in the instance state, so repeated
        configurations -- within one document, across repeated publishes and
        across migrated child versions -- reuse the previously built
        :class:`TreeNode` objects instead of re-walking the subtree.  Budget
        accounting and stop-condition semantics are unchanged: a reused
        subtree charges exactly the nodes it would have produced.
        """
        virtual = self._virtual
        cursor = self._cursor(state, budget)
        limit = _SUBTREE_TRIPLE_LIMIT
        pair_sets = self._pair_sets
        subtrees = state.subtrees

        def open_frame(triple: Triple) -> _Frame:
            frame = cursor.open(triple)
            by_state = pair_sets.get(triple[1])
            if by_state and not frame.stopped:
                pairs = by_state.get(triple[0])
                if pairs:
                    frame.pairs = pairs
                    frame.sensitive = {triple}
            return frame

        root_triple = self._root_triple()
        if self._root_tag not in virtual:
            entry = self._subtree_entry(state, cursor, root_triple)
            if entry is not None:
                cursor.charge(entry.weight)
                with self._lock:
                    self._hits += entry.saved
                return entry.nodes[0]
        result: TreeNode | None = None
        frames = [open_frame(root_triple)]
        while frames:
            frame = frames[-1]
            if frame.index < len(frame.expansion):
                child = frame.expansion[frame.index]
                frame.index += 1
                entry = self._subtree_entry(state, cursor, child)
                if entry is not None:
                    cursor.charge(entry.weight)
                    with self._lock:
                        self._hits += entry.saved
                    frame.built.extend(entry.nodes)
                    frame.weight += entry.weight
                    frame.opened += entry.saved
                    if frame.triples is not None:
                        frame.triples |= entry.triples
                        if entry.pairs:
                            _fold_pairs(frame, entry.pairs, entry.sensitive, False)
                        if len(frame.triples) > limit:
                            frame.triples = None
                    continue
                frames.append(open_frame(child))
                continue
            frames.pop()
            cursor.close(frame)
            tag = frame.triple[1]
            if tag in virtual:
                nodes: tuple[TreeNode, ...] = tuple(frame.built)
            else:
                nodes = (TreeNode(tag, tuple(frame.built), frame.text),)
            if frame.triples is not None and not frame.stopped:
                sensitive = frame.sensitive
                frozen = frozenset(frame.triples)
                entry = _SubtreeEntry(
                    nodes,
                    frozen,
                    frame.pairs,
                    _frozen_sensitive(sensitive, frozen) if sensitive else (),
                    frame.weight,
                    frame.opened,
                )
                if sensitive:
                    subtrees.put(frame.triple, entry, frame.pairs)
                else:
                    subtrees.stable[frame.triple] = entry
            if frames:
                parent = frames[-1]
                if tag in virtual:
                    parent.built.extend(nodes)
                else:
                    parent.built.append(nodes[0])
                parent.weight += frame.weight
                parent.opened += frame.opened
                if frame.triples is None:
                    parent.triples = None
                elif parent.triples is not None:
                    # Small-to-large: donate the bigger set upward, so deep
                    # spines cost O(n log n) bookkeeping, not O(n * depth).
                    if len(parent.triples) < len(frame.triples):
                        frame.triples |= parent.triples
                        parent.triples = frame.triples
                    else:
                        parent.triples |= frame.triples
                    if frame.pairs:
                        _fold_pairs(parent, frame.pairs, frame.sensitive, True)
                    if len(parent.triples) > limit:
                        parent.triples = None
            elif tag in virtual:
                # A virtual root still renders as an element in tree mode;
                # its cached entry keeps the child-contribution semantics.
                result = TreeNode(tag, tuple(frame.built), frame.text)
            else:
                result = nodes[0]
        assert result is not None
        return result

    def _stream_events(self, state: _InstanceState, budget: int) -> Iterator[XmlEvent]:
        """The lazy event stream behind :meth:`publish_events`."""
        virtual = self._virtual
        cursor = self._cursor(state, budget)
        frames: list[_Frame] = []

        def push(triple: Triple) -> Iterator[XmlEvent]:
            frame = cursor.open(triple)
            tag = frame.triple[1]
            if tag == TEXT_TAG:
                cursor.close(frame)
                if tag not in virtual:
                    yield TextEvent(frame.text)
                return
            frames.append(frame)
            if tag not in virtual:
                yield OpenEvent(tag)

        yield from push(self._root_triple())
        while frames:
            frame = frames[-1]
            if frame.index < len(frame.expansion):
                child = frame.expansion[frame.index]
                frame.index += 1
                yield from push(child)
                continue
            frames.pop()
            cursor.close(frame)
            tag = frame.triple[1]
            if tag not in virtual:
                yield CloseEvent(tag)

    def _build_annotated(
        self, state: _InstanceState, budget: int
    ) -> tuple[AnnotatedNode, int]:
        """The extended tree in ``Tree_{Q x Sigma}`` (interpreter-compatible)."""
        cursor = self._cursor(state, budget)
        encoder = state.encoder
        steps = 0
        root = AnnotatedNode(
            state=self._start_state, tag=self._root_tag, register=frozenset()
        )

        def open_node(node: AnnotatedNode, triple: Triple) -> _Frame:
            nonlocal steps
            steps += 1
            node.finalized = True
            frame = cursor.open(triple)
            if frame.stopped:
                node.stopped_by_condition = True
            elif node.tag == TEXT_TAG:
                node.text = frame.text
            return frame

        # Each stack entry: (annotated node, its traversal frame).  In
        # encoded mode the traversal runs on encoded triples while the
        # interpreter-compatible annotated nodes carry decoded registers.
        stack: list[tuple[AnnotatedNode, _Frame]] = [
            (root, open_node(root, self._root_triple()))
        ]
        while stack:
            node, frame = stack[-1]
            if frame.index < len(frame.expansion):
                child_triple = frame.expansion[frame.index]
                child_state, child_tag, child_register = child_triple
                frame.index += 1
                child = AnnotatedNode(
                    state=child_state,
                    tag=child_tag,
                    register=(
                        child_register
                        if encoder is None
                        else encoder.decode_rows(child_register)
                    ),
                    parent=node,
                )
                node.children.append(child)
                stack.append((child, open_node(child, child_triple)))
                continue
            stack.pop()
            cursor.close(frame)
        return root, steps


class Engine:
    """Compiles publishing transducers into reusable :class:`PublishingPlan` s.

    The engine is the evaluation kernel of the reproduction: compile once,
    run many times, stream when the output is large::

        plan = Engine().compile(tau, schema)
        tree = plan.publish(instance)
        for event in plan.publish_events(big_instance):
            ...

    The recommended serving surface on top of it is
    :class:`repro.serve.ViewServer`, which compiles views through this class
    and routes output form, backend and maintenance in one call.
    """

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        cache_instances: int = 8,
    ) -> None:
        self._max_nodes = max_nodes
        self._cache_instances = cache_instances

    def compile(
        self,
        transducer: PublishingTransducer,
        schema: RelationalSchema | None = None,
        max_nodes: int | None = None,
    ) -> PublishingPlan:
        """Compile ``transducer`` (optionally validated against ``schema``)."""
        return PublishingPlan(
            transducer,
            schema=schema,
            max_nodes=self._max_nodes if max_nodes is None else max_nodes,
            cache_instances=self._cache_instances,
        )


def compile_plan(
    transducer: PublishingTransducer,
    schema: RelationalSchema | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    cache_instances: int = 8,
) -> PublishingPlan:
    """One-call convenience: ``compile_plan(tau).publish(instance)``."""
    return PublishingPlan(
        transducer, schema=schema, max_nodes=max_nodes, cache_instances=cache_instances
    )
