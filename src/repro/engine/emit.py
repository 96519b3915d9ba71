"""The bytes-native publish driver: serialise straight from the expansions.

:meth:`repro.engine.plan.PublishingPlan.publish_bytes` routes here.  The
other evaluation modes materialise a Σ-tree (or an event stream) and hand it
to a serialiser; profiling shows that on warm caches the publish hot path is
dominated by exactly that re-walk -- per-node ``TreeNode`` construction or
per-event serialiser dispatch plus text re-rendering -- while the memoised
expansions answer in a dictionary lookup.  This driver removes the middle
layer entirely:

* **byte templates** -- the constant skeleton of the output (``<tag>``,
  ``</tag>``, ``<tag/>``, newline-plus-indentation prefixes) is preassembled
  once per ``(tag, level)`` on the plan and reused across publishes, so the
  steady-state cost of an element is a few dict lookups and list appends;
* **interned character data** -- text registers render through
  :meth:`~repro.relational.columnar.DictionaryEncoder.escaped_text` (encoded
  pipeline: escaped fragments are interned next to the value ids on the
  shared encoder and survive version migrations) or a per-instance-state
  fragment memo (row pipeline), so ``escape``/:func:`relation_to_text` run
  once per distinct register, not once per node visit;
* **a rendered-bytes cache** -- the rendered span of every clean subtree is
  cached per ``(state, tag, register)`` configuration and level, exactly
  parallel to the structural subtree cache of tree mode: reuse requires the
  current root-to-node path to be disjoint from the subtree's configuration
  set (stop-condition safety), reuse charges the node budget the subtree's
  traversal would have charged, and the migration to a child version
  carries entries over with per-rule invalidation and lazy confirmation.
  A publish after a commit therefore re-renders only invalidated spans,
  and a cache-hot publish of an unchanged document is a buffer handoff.

Output is **byte-identical** to the established serialisers on every
backend: ``indent=N`` matches :func:`repro.xmltree.serialize.to_xml` /
:class:`~repro.xmltree.serialize.IncrementalXmlSerializer`, ``indent=None``
matches the compact forms.  The rendering rules mirrored here are: an
element with no children is ``<tag/>``; an element whose children are all
text renders inline on one line; anything else renders multi-line with
per-level indentation; virtual tags contribute their children's spans
spliced at the enclosing element's level.

No ``TreeNode`` is ever constructed: working state is a frame stack over
the expansion tuples and one flat list of string chunks.  The frame-stack
driver (:func:`_render_span`) renders any subtree from any starting
configuration, which is also the worker-side unit of ``repro.parallel``:
:func:`render_subtree` renders one sibling subtree with the ancestor path
seeded for stop-condition safety, and the parent process splices the
returned spans — confluence makes every span a pure function of its own
``(state, tag, register)`` over the snapshot, so the parallel document is
byte-identical to the serial one by construction.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.relational.domain import relation_to_text
from repro.xmltree.tree import TEXT_TAG

#: Largest chunk span a cached rendered subtree may hold.  Bigger spans are
#: re-emitted from the (still cached) child entries instead, which bounds
#: the cache's memory on blow-up outputs.
_RENDER_SPAN_LIMIT = 65536


class _RenderEntry:
    """One cached rendered span: the bytes-path analogue of ``_SubtreeEntry``.

    ``chunks`` is the span the subtree contributes to the output buffer
    (already fully rendered, including indentation prefixes); ``texts`` is
    the raw escaped character data when the contribution is pure text (a
    virtual subtree of text leaves -- the enclosing element may still render
    inline), ``None`` when it contains an element.  ``triples`` / ``pairs``
    / ``sensitive`` / ``weight`` / ``saved`` have the subtree-cache
    semantics: stop-condition safety, delta invalidation and confirmation,
    node-budget charge, and hit accounting.  ``document`` memoises the
    joined document on root entries so a cache-hot publish returns one
    interned string.
    """

    __slots__ = (
        "chunks",
        "texts",
        "triples",
        "pairs",
        "sensitive",
        "weight",
        "saved",
        "document",
    )

    def __init__(
        self,
        chunks: tuple[str, ...],
        texts: tuple[str, ...] | None,
        triples: frozenset,
        pairs: frozenset,
        sensitive: tuple | frozenset,
        weight: int,
        saved: int,
    ) -> None:
        self.chunks = chunks
        self.texts = texts
        self.triples = triples
        self.pairs = pairs
        self.sensitive = sensitive
        self.weight = weight
        self.saved = saved
        self.document: str | None = None


class SpanResult:
    """What rendering one subtree yields: the span plus its close algebra.

    ``span`` is the rendered contribution (indentation prefixes included);
    ``texts`` carries the raw escaped fragments when the contribution is
    pure text from a virtual subtree (the enclosing element may then still
    render inline), ``None`` otherwise.  ``triples`` is the configuration
    set for stop-condition/cacheability bookkeeping (``None`` when the span
    is path-dependent or oversized) and ``pairs`` / ``sensitive`` its
    source-reading part, ``weight`` the node-budget charge and ``opened``
    the node count the span accounts for.  Everything here is plain
    picklable data: this is exactly what a ``repro.parallel`` worker sends
    back across the process boundary.
    """

    __slots__ = ("span", "texts", "triples", "pairs", "sensitive", "weight", "opened")

    def __init__(self, span, texts, triples, pairs, sensitive, weight, opened):
        self.span = span
        self.texts = texts
        self.triples = triples
        self.pairs = pairs
        self.sensitive = sensitive
        self.weight = weight
        self.opened = opened

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


class _EmitFrame:
    """One open node of the byte-rendering walk.

    ``start`` is the frame's span start in the shared output buffer (for an
    element, the index of its placeholder slot -- patched at close once the
    empty/inline/mixed shape is known; the incremental serialiser solves the
    same problem with pending frames).  ``texts`` buffers raw escaped text
    while the frame's contribution is still pure text; it flips to ``None``
    the moment an element child arrives.  ``triples`` / ``pairs`` /
    ``sensitive`` / ``weight`` / ``opened`` feed the cached entry, with
    ``None`` triples poisoning sharing after a stop-condition hit exactly as
    in tree mode.
    """

    __slots__ = (
        "triple",
        "expansion",
        "index",
        "level",
        "child_level",
        "child_pad",
        "start",
        "texts",
        "triples",
        "pairs",
        "sensitive",
        "weight",
        "opened",
        "virtual",
    )


def _confirmed_entry(plan, state, key) -> _RenderEntry | None:
    """The cached entry for ``key``, confirming a migrated suspect if needed.

    Path-disjointness is the caller's concern; this only answers "is there
    a (still valid) rendered span for this configuration".
    """
    cache = state.renders
    entry = cache.stable.get(key)
    if entry is None and cache.versioned:
        entry = cache.versioned.get(key)
    if entry is None:
        if not state.render_suspects:
            return None
        entry = state.render_suspects.pop(key, None)
        if entry is None:
            return None
        if not plan._confirm(state, entry):
            return None
        cache.put(key, entry, entry.pairs)
    return entry


def _render_span(plan, state, cursor, indent, start_triple, start_level, blocked=()):
    """The frame-stack driver: render ``start_triple``'s subtree into chunks.

    Returns ``(out, info)`` where ``out`` is the chunk list (the subtree's
    span, indentation prefixes included) and ``info`` the start frame's
    close algebra as a :class:`SpanResult` (its ``span`` left ``None`` --
    the chunks are handed back separately so the document driver can join
    once).  ``blocked`` seeds the root-to-node path with ancestor triples,
    which is how a parallel worker rendering one sibling subtree observes
    the same stop condition a serial walk would.
    """
    from repro.engine.plan import (
        _NO_PAIRS,
        _SUBTREE_TRIPLE_LIMIT,
        _fold_pairs,
        _frozen_sensitive,
    )

    virtual = plan._virtual
    pretty = indent is not None
    templates = plan._templates.get(indent)
    if templates is None:
        # opens / closes / empties keyed (tag, level); ends keyed tag;
        # pads keyed level.  In compact mode every level is normalised to 0.
        # setdefault so two racing publishes agree on one table (the
        # per-tag entries below are deterministic, so last-wins fills are
        # fine, but the five dicts themselves must be shared).
        templates = plan._templates.setdefault(indent, ({}, {}, {}, {}, {}))
    opens, closes, empties, ends, pads = templates

    def pad_of(level: int) -> str:
        found = pads.get(level)
        if found is None:
            found = pads[level] = "\n" + " " * (indent * level) if pretty else ""
        return found

    def open_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = opens.get(key)
        if found is None:
            found = opens[key] = f"{pad_of(level)}<{tag}>"
        return found

    def close_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = closes.get(key)
        if found is None:
            found = closes[key] = f"{pad_of(level)}</{tag}>"
        return found

    def empty_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = empties.get(key)
        if found is None:
            found = empties[key] = f"{pad_of(level)}<{tag}/>"
        return found

    def end_of(tag: str) -> str:
        found = ends.get(tag)
        if found is None:
            found = ends[tag] = f"</{tag}>"
        return found

    encoder = state.encoder
    if encoder is not None:
        text_of = encoder.escaped_text
    else:
        fragments = state.text_fragments

        def text_of(register) -> str:
            found = fragments.get(register)
            if found is None:
                found = fragments[register] = escape(relation_to_text(register))
            return found

    path = cursor._path
    for ancestor in blocked:
        path.add(ancestor)
    renders = state.renders
    stable_renders = renders.stable
    pair_sets = plan._pair_sets
    limit = _SUBTREE_TRIPLE_LIMIT

    def lookup(key) -> _RenderEntry | None:
        entry = _confirmed_entry(plan, state, key)
        if entry is None or not path.isdisjoint(entry.triples):
            return None
        return entry

    out: list[str] = []
    info: SpanResult | None = None

    def open_frame(triple, level: int) -> _EmitFrame:
        expansion = plan._expansion(state, triple)
        cursor.charge(len(expansion))
        path.add(triple)
        tag = triple[1]
        frame = _EmitFrame()
        frame.triple = triple
        frame.expansion = expansion
        frame.index = 0
        frame.level = level
        frame.virtual = is_virtual = tag in virtual
        if pretty:
            frame.child_level = level if is_virtual else level + 1
        else:
            frame.child_level = 0
        frame.child_pad = pad_of(frame.child_level)
        frame.start = len(out)
        if not is_virtual:
            out.append("")  # placeholder: empty / inline / open, patched at close
        frame.texts = []
        frame.triples = {triple}
        by_state = pair_sets.get(tag)
        pairs = by_state.get(triple[0]) if by_state else None
        if pairs:
            frame.pairs = pairs
            frame.sensitive = {triple}
        else:
            frame.pairs = _NO_PAIRS
            frame.sensitive = None
        frame.weight = len(expansion)
        frame.opened = 1
        return frame

    frames = [open_frame(start_triple, start_level)]
    while frames:
        frame = frames[-1]
        expansion = frame.expansion
        if frame.index < len(expansion):
            child = expansion[frame.index]
            frame.index += 1
            ctag = child[1]
            if ctag == TEXT_TAG:
                # Text leaves render from the interned fragments; they are
                # pure functions of their register, so they neither consult
                # the expansion memo nor take part in invalidation.  A
                # stop-condition hit yields empty text and, as in tree
                # mode, makes the surrounding spans path-dependent.
                if child in path:
                    fragment = ""
                    frame.triples = None
                else:
                    fragment = text_of(child[2])
                frame.opened += 1
                if ctag in virtual:
                    continue
                out.append(frame.child_pad + fragment if pretty else fragment)
                if frame.texts is not None:
                    frame.texts.append(fragment)
                continue
            if child in path:
                # Stop condition: the node exists but expands to nothing.
                frame.triples = None
                frame.opened += 1
                if ctag not in virtual:
                    out.append(empty_of(ctag, frame.child_level))
                    frame.texts = None
                continue
            entry = lookup((indent, child, frame.child_level))
            if entry is not None:
                cursor.charge(entry.weight)
                with plan._lock:
                    plan._render_hits += 1
                out.extend(entry.chunks)
                frame.weight += entry.weight
                frame.opened += entry.saved
                if entry.texts is None:
                    frame.texts = None
                elif frame.texts is not None:
                    frame.texts.extend(entry.texts)
                if frame.triples is not None:
                    frame.triples |= entry.triples
                    if entry.pairs:
                        _fold_pairs(frame, entry.pairs, entry.sensitive, False)
                    if len(frame.triples) > limit:
                        frame.triples = None
                continue
            frames.append(open_frame(child, frame.child_level))
            continue
        frames.pop()
        path.remove(frame.triple)
        with plan._lock:
            plan._render_misses += 1
        tag = frame.triple[1]
        start = frame.start
        texts = frame.texts
        if not frame.virtual:
            if texts is None:
                # Mixed content: patch the placeholder into an open tag,
                # close on its own line.  Children rendered themselves into
                # the span as they were visited.
                out[start] = open_of(tag, frame.level)
                out.append(close_of(tag, frame.level))
            elif texts:
                # Text-only: the whole span collapses to one inline line
                # (the buffered raw fragments replace their padded lines).
                out[start:] = [f"{open_of(tag, frame.level)}{''.join(texts)}{end_of(tag)}"]
            else:
                # No children at all (len(out) == start + 1 here).
                out[start] = empty_of(tag, frame.level)
        triples = frame.triples
        sensitive = frame.sensitive
        if triples is not None and len(out) - start <= _RENDER_SPAN_LIMIT:
            frozen = frozenset(triples)
            entry = _RenderEntry(
                tuple(out[start:]),
                tuple(texts) if frame.virtual and texts is not None else None,
                frozen,
                frame.pairs,
                _frozen_sensitive(sensitive, frozen) if sensitive else (),
                frame.weight,
                frame.opened,
            )
            if sensitive:
                renders.put((indent, frame.triple, frame.level), entry, frame.pairs)
            else:
                stable_renders[(indent, frame.triple, frame.level)] = entry
        if frames:
            parent = frames[-1]
            parent.weight += frame.weight
            parent.opened += frame.opened
            if frame.virtual:
                if texts is None:
                    parent.texts = None
                elif parent.texts is not None:
                    parent.texts.extend(texts)
            else:
                parent.texts = None
            if triples is None:
                parent.triples = None
            elif parent.triples is not None:
                # Small-to-large: donate the bigger set upward (see
                # _build_tree), bounding bookkeeping on deep spines.
                if len(parent.triples) < len(triples):
                    triples |= parent.triples
                    parent.triples = triples
                else:
                    parent.triples |= triples
                if frame.pairs:
                    _fold_pairs(parent, frame.pairs, sensitive, True)
                if len(parent.triples) > limit:
                    parent.triples = None
        else:
            frozen = frozenset(triples) if triples is not None else None
            info = SpanResult(
                None,
                tuple(texts) if frame.virtual and texts is not None else None,
                frozen,
                frame.pairs,
                _frozen_sensitive(sensitive, frozen) if frozen and sensitive else (),
                frame.weight,
                frame.opened,
            )
    for ancestor in blocked:
        path.discard(ancestor)
    return out, info


def render_document(plan, state, budget: int, indent: int | None) -> str:
    """Render one instance's output document as a string (no trees built)."""
    virtual = plan._virtual
    if plan._root_tag in virtual or plan._root_tag == TEXT_TAG:
        # Virtual or text roots splice children at the top level, where the
        # single-root / no-top-level-text document rules live.  They are
        # rare (no shipped workload uses one); keep the event serialiser as
        # the exact reference semantics, error messages included.
        from repro.xmltree.serialize import IncrementalXmlSerializer

        serializer = IncrementalXmlSerializer(indent=indent)
        return serializer.feed_all(plan._stream_events(state, budget)).finish()

    pretty = indent is not None
    cursor = plan._cursor(state, budget)
    root_triple = plan._root_triple()
    root_key = (indent, root_triple, 0)

    # Cache-hot fast path: the whole document was rendered for this
    # instance version (or provably re-renders identically after the
    # migration's delta) -- hand the joined buffer back.  The path is empty
    # here, so confirmation is the only reuse condition.
    root_entry = _confirmed_entry(plan, state, root_key)
    if root_entry is not None:
        cursor.charge(root_entry.weight)
        with plan._lock:
            plan._render_hits += 1
        document = root_entry.document
        if document is None:
            document = "".join(root_entry.chunks)
            if pretty:
                document = document[1:]
            root_entry.document = document
        return document

    out, _ = _render_span(plan, state, cursor, indent, root_triple, 0)
    document = "".join(out)
    if pretty:
        document = document[1:]
    root_entry = state.renders.get(root_key)
    if root_entry is not None:
        root_entry.document = document
    return document


def render_subtree(
    plan,
    state,
    budget: int,
    indent: int | None,
    triple,
    level: int,
    blocked=(),
) -> SpanResult:
    """Render one subtree's span: the worker-side unit of ``repro.parallel``.

    ``blocked`` is the root-to-node path above the subtree (for a direct
    child of the root: the root's triple), so stop-condition hits inside
    the subtree behave exactly as in a serial walk.  The span lands in this
    process's rendered-span cache as a side effect, which is what "merging
    per-worker memo caches" means: the parent re-installs the returned
    entries, a worker keeps its own cache warm across tasks.
    """
    cursor = plan._cursor(state, budget)
    blocked = frozenset(blocked)
    entry = _confirmed_entry(plan, state, (indent, triple, level))
    if entry is not None and blocked.isdisjoint(entry.triples):
        cursor.charge(entry.weight)
        with plan._lock:
            plan._render_hits += 1
        return SpanResult(
            "".join(entry.chunks),
            entry.texts,
            entry.triples,
            entry.pairs,
            entry.sensitive,
            entry.weight,
            entry.saved,
        )
    out, info = _render_span(plan, state, cursor, indent, triple, level, blocked)
    info.span = "".join(out)
    return info
