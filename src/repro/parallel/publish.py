"""Parallel subtree expansion: one publish fanned across the worker pool.

Confluence is the whole trick.  Every child of the root expands as a pure
function of its own ``(state, tag, register)`` triple over the snapshot, so
the root's sibling subtrees -- including the Proposition-1 blow-up fan-outs
-- can render in different processes and splice back in document order.
The parent renders only the root frame itself: it runs the root expansion,
hands contiguous runs of element children to the pool
(:func:`repro.parallel.tasks._render_spans` -> worker-side
:func:`repro.engine.emit.render_subtree` with the root triple blocked for
stop-condition safety), renders text children from its own interned
fragments, and replays the exact close algebra of the serial driver --
empty / inline / mixed -- over the returned
:class:`~repro.engine.emit.SpanResult`\\ s.  Node-budget charges are applied
in document order from the same cursor, so the budget raises (or does not)
exactly as a serial publish would.

The output is byte-identical to ``plan.publish_bytes`` by construction;
:func:`parallel_publish_bytes` falls back to the serial driver whenever the
pool cannot help (no pool, a virtual/text root, fewer than two element
children, unpicklable artefacts, or a mid-flight worker crash).  Returned
spans are merged into the parent's rendered-span cache, so a later serial
publish or republish of the same version is cache-hot.
"""

from __future__ import annotations

from repro.engine.emit import _EmitFrame, _RenderEntry, _confirmed_entry
from repro.parallel.pool import (
    NotShippable,
    PoolBroken,
    WorkerCrashed,
    WorkerPool,
    WorkerTaskError,
)
from repro.xmltree.tree import TEXT_TAG

#: Pool dispatch needs at least this many element children to beat the
#: serial driver (two: anything less has no sibling parallelism).
_MIN_FANOUT = 2


def _chunked(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous, balanced runs."""
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out, start = [], 0
    for index in range(chunks):
        end = start + size + (1 if index < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def parallel_publish_bytes(
    plan,
    instance,
    pool: WorkerPool | None,
    *,
    indent: int | None = 2,
    max_nodes: int | None = None,
) -> str:
    """``plan.publish_bytes(instance)`` with sibling subtrees on the pool.

    Byte-identical to the serial driver on every backend; serial fallback
    whenever the pool is absent, broken, or the task is not shippable.
    """
    serial = lambda: plan.publish_bytes(instance, indent=indent, max_nodes=max_nodes)
    if pool is None or pool.broken:
        return serial()
    virtual = plan._virtual
    if plan._root_tag in virtual or plan._root_tag == TEXT_TAG:
        return serial()  # spliced-root documents keep the serialiser path

    state = plan._instance_state(instance)
    budget = plan._max_nodes if max_nodes is None else max_nodes
    pretty = indent is not None
    root_triple = plan._root_triple()
    root_key = (indent, root_triple, 0)
    if _confirmed_entry(plan, state, root_key) is not None:
        return serial()  # cache-hot: the serial fast path is a dict lookup

    expansion = plan._expansion(state, root_triple)
    children = list(expansion)
    element_positions = [
        position
        for position, child in enumerate(children)
        if child[1] != TEXT_TAG and child != root_triple
    ]
    if len(element_positions) < _MIN_FANOUT:
        return serial()

    try:
        plan_token = pool.install(plan)
        instance_token = pool.install(instance)
    except NotShippable:
        return serial()

    child_level = 1 if pretty else 0
    blocked = (root_triple,)

    # Reuse parent-cached spans; dispatch only the cold subtrees.
    spans: dict[int, object] = {}
    dispatch: list[int] = []
    parent_hits = 0
    for position in element_positions:
        child = children[position]
        entry = _confirmed_entry(plan, state, (indent, child, child_level))
        if entry is not None and root_triple not in entry.triples:
            spans[position] = entry
            parent_hits += 1
        else:
            dispatch.append(position)

    merged = 0
    if dispatch:
        batches = _chunked(dispatch, pool.size * 2)
        futures = []
        try:
            for batch in batches:
                futures.append(
                    (
                        batch,
                        pool.submit(
                            "render_spans",
                            plan_token,
                            instance_token,
                            [children[position] for position in batch],
                            child_level,
                            indent,
                            budget,
                            blocked,
                            tokens=(plan_token, instance_token),
                        ),
                    )
                )
        except (NotShippable, PoolBroken, WorkerCrashed):
            return serial()
        for batch, future in futures:
            try:
                results = future.result()
            except (PoolBroken, WorkerCrashed, WorkerTaskError):
                # The worker died (or could not ship its reply): render
                # this batch in-process; real publish errors (budget and
                # friends) arrive as their own exception types and raise.
                from repro.engine.emit import render_subtree

                results = [
                    render_subtree(
                        plan, state, budget, indent, children[position],
                        child_level, blocked,
                    )
                    for position in batch
                ]
            for position, result in zip(batch, results):
                spans[position] = result
                # Merge the worker's span into this process's cache so the
                # next (serial or incremental) publish of this version is
                # warm.  Mirrors the serial driver's cacheability rules.
                if result.triples is not None:
                    state.renders.put(
                        (indent, children[position], child_level),
                        _RenderEntry(
                            (result.span,),
                            result.texts,
                            result.triples,
                            result.pairs,
                            result.sensitive,
                            result.weight,
                            result.opened,
                        ),
                        result.pairs,
                    )
                    merged += 1
        pool.note_merges(merged)

    # -- the root frame's close algebra, replayed over the results ----------
    encoder = state.encoder
    if encoder is not None:
        text_of = encoder.escaped_text
    else:
        from xml.sax.saxutils import escape

        from repro.relational.domain import relation_to_text

        fragments = state.text_fragments

        def text_of(register):
            found = fragments.get(register)
            if found is None:
                found = fragments[register] = escape(relation_to_text(register))
            return found

    from repro.engine.plan import _SUBTREE_TRIPLE_LIMIT, _fold_pairs, _frozen_sensitive

    tag = root_triple[1]
    pad0 = "\n" if pretty else ""
    child_pad = "\n" + " " * indent if pretty else ""
    cursor = plan._cursor(state, budget)
    cursor.charge(len(expansion))
    out: list[str] = [""]  # the root placeholder, patched below
    texts: list | None = []
    triples: set | None = {root_triple}
    # The root's source-reading pairs, folded like a serial frame's.
    root = _EmitFrame()
    root.pairs = plan._pairs_of(root_triple[0], tag)
    root.sensitive = {root_triple} if root.pairs else None
    weight = len(expansion)
    opened = 1
    with plan._lock:
        plan._render_hits += parent_hits

    for position, child in enumerate(children):
        ctag = child[1]
        if ctag == TEXT_TAG:
            fragment = text_of(child[2])
            opened += 1
            if ctag in virtual:
                continue
            out.append(child_pad + fragment if pretty else fragment)
            if texts is not None:
                texts.append(fragment)
            continue
        if child == root_triple:
            # Stop condition directly under the root.
            triples = None
            opened += 1
            if ctag not in virtual:
                pad = child_pad if pretty else ""
                out.append(f"{pad}<{ctag}/>")
                texts = None
            continue
        result = spans[position]
        cursor.charge(result.weight)
        if isinstance(result, _RenderEntry):
            out.extend(result.chunks)
            saved = result.saved
        else:
            out.append(result.span)
            saved = result.opened
        weight += result.weight
        opened += saved
        if result.texts is None:
            texts = None
        elif texts is not None:
            texts.extend(result.texts)
        if triples is not None:
            if result.triples is None:
                triples = None
            else:
                triples |= result.triples
                if result.pairs:
                    _fold_pairs(root, result.pairs, result.sensitive, False)
                if len(triples) > _SUBTREE_TRIPLE_LIMIT:
                    triples = None

    if texts is None:
        out[0] = f"{pad0}<{tag}>"
        out.append(f"{pad0}</{tag}>")
    elif texts:
        out = [f"{pad0}<{tag}>{''.join(texts)}</{tag}>"]
    else:
        out = [f"{pad0}<{tag}/>"]
    with plan._lock:
        plan._render_misses += 1

    from repro.engine.emit import _RENDER_SPAN_LIMIT

    document = "".join(out)
    if pretty:
        document = document[1:]
    if triples is not None and len(out) <= _RENDER_SPAN_LIMIT:
        sensitive = root.sensitive
        frozen = frozenset(triples)
        entry = _RenderEntry(
            tuple(out),
            None,
            frozen,
            root.pairs,
            _frozen_sensitive(sensitive, frozen) if sensitive else (),
            weight,
            opened,
        )
        entry.document = document
        state.renders.put(root_key, entry, entry.pairs)
    return document
