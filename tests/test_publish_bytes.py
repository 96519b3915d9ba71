"""The bytes-native publish path (`repro.engine.emit`).

The contract under test is the acceptance bar of the serialization PR:

* ``publish_bytes`` / ``publish(output="bytes"|"compact")`` is byte-identical
  to the established serialisers (``to_xml`` / ``to_compact_xml`` /
  ``IncrementalXmlSerializer``) on every backend x parent-state x output
  combination -- a child version rendered from its parent's migrated state
  or from scratch -- including escaping edge cases and commit chains;
* the bytes path never constructs a ``TreeNode``;
* rendered-span cache hits surface through ``stats()`` / ``explain()``;
* the node budget charges exactly as tree mode (same minimal budget);
* the recursive serialisers are now iterative and survive
  Proposition-1-depth trees.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.runtime import TransformationLimitError
from repro.engine import compile_plan, transducer
from repro.logic.cq import ConjunctiveQuery, RelationAtom
from repro.logic.terms import Variable
from repro.relational.columnar import ensure_encoded
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.relational.schema import RelationalSchema
from repro.serve import BACKENDS, ViewServer
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.serialize import IncrementalXmlSerializer, to_compact_xml, to_xml
from repro.xmltree.tree import TreeNode


def _fresh_document(tau, instance, indent=2):
    """The oracle document: a fresh plan's materialised tree, serialised."""
    tree = compile_plan(tau).publish(instance)
    return to_xml(tree, indent=indent) if indent is not None else to_compact_xml(tree)


def _workloads():
    registrar = generate_registrar_instance(15, max_prereqs=2, seed=11, cycle_fraction=0.1)
    return [
        ("tau1", tau1_prerequisite_hierarchy(), registrar),
        ("tau2", tau2_prerequisite_closure(), registrar),
        ("tau3", tau3_courses_without_db_prereq(), registrar),
        ("diamonds", chain_of_diamonds_transducer(), chain_of_diamonds_instance(4)),
        ("counter", binary_counter_transducer(), binary_counter_instance(2)),
    ]


ALL_COMBOS = tuple(itertools.product(BACKENDS, ("warm", "cold"), ("bytes", "compact")))


def _commit_one_deletion(handle) -> None:
    """Commit a single-tuple deletion from the source's largest relation."""
    instance = handle.instance
    name = max(sorted(instance), key=lambda relation: len(instance[relation]))
    handle.commit(Delta.delete(name, min(instance[name].tuples, key=repr)))


# ---------------------------------------------------------------------------
# Byte identity across every routing combination.
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("backend,parent,output", ALL_COMBOS)
    def test_all_workloads_all_combos(self, backend, parent, output):
        indent = 2 if output == "bytes" else None
        for name, tau, instance in _workloads():
            server = ViewServer()
            view = server.register_view(name, tau)
            handle = server.attach(instance, name="src")
            expected = _fresh_document(tau, instance, indent=indent)
            produced = server.publish(name, output=output, backend=backend)
            assert produced == expected, (name, backend, parent, output)
            # A second publish serves from the rendered-span cache; the
            # bytes must not change.
            assert server.publish(name, output=output, backend=backend) == expected
            # The child version renders from the parent's migrated state
            # ("warm") or, with the parent's state dropped, from scratch.
            _commit_one_deletion(handle)
            if parent == "cold":
                view.plan_for(None).clear_cache()
            expected = _fresh_document(tau, handle.instance, indent=indent)
            produced = server.publish(name, output=output, backend=backend)
            assert produced == expected, (name, backend, parent, output)

    @pytest.mark.parametrize("indent", [0, 2, 4, None])
    def test_indent_variants_match_serializers(self, indent):
        tau = tau1_prerequisite_hierarchy()
        instance = generate_registrar_instance(10, seed=5)
        plan = compile_plan(tau)
        tree = compile_plan(tau).publish(instance)
        expected = to_compact_xml(tree) if indent is None else to_xml(tree, indent=indent)
        assert plan.publish_bytes(instance, indent=indent) == expected
        # and again from the warm cache
        assert plan.publish_bytes(instance, indent=indent) == expected

    def test_matches_incremental_event_serializer(self):
        for name, tau, instance in _workloads():
            plan = compile_plan(tau)
            streamed = IncrementalXmlSerializer(indent=2).feed_all(
                plan.publish_events(instance)
            ).finish()
            assert compile_plan(tau).publish_bytes(instance, indent=2) == streamed, name

    def test_encoded_instances_match_row_instances(self):
        for name, tau, instance in _workloads():
            row_doc = compile_plan(tau).publish_bytes(instance)
            ensure_encoded(instance)  # in place; the content is unchanged
            assert compile_plan(tau).publish_bytes(instance) == row_doc, name


# ---------------------------------------------------------------------------
# Escaping edge cases: the interned fragments must escape exactly like the
# tree serialisers escape.
# ---------------------------------------------------------------------------

_NASTY_VALUES = (
    "&",
    "<tag>",
    "a&b<c>d",
    'he said "hi"',
    "it's",
    "héllo wörld ☃",
    "line\nbreak",
    "\ttab",
    "",
    True,
    False,
    42,
    -7,
    3.5,
)


def _escape_case():
    schema = RelationalSchema.from_attributes({"P": ("v",)})
    instance = Instance(schema, {"P": [(value,) for value in _NASTY_VALUES]})
    x = Variable("x")
    phi = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
    copy = ConjunctiveQuery((x,), (RelationAtom("Reg_item", (x,)),))
    tau = (
        transducer("esc", root="r")
        .start()
        .emit("q", "item", phi)
        .state("q")
        .on("item")
        .emit_text(copy)
        .build()
    )
    return tau, instance


class TestEscaping:
    @pytest.mark.parametrize("encoded", [False, True])
    @pytest.mark.parametrize("indent", [2, None])
    def test_nasty_character_data(self, encoded, indent):
        tau, instance = _escape_case()
        if encoded:
            ensure_encoded(instance)
        expected = _fresh_document(tau, instance, indent=indent)
        produced = compile_plan(tau).publish_bytes(instance, indent=indent)
        assert produced == expected
        for value in ("&amp;", "&lt;tag&gt;", "true", "false", "42", "3.5"):
            assert value in produced
        assert "<tag>" not in produced

    def test_relation_register_join_escapes_identically(self):
        # Relation-valued registers render "; "-joined rows; escaping the
        # join must equal joining the escaped parts (tau2 exercises this).
        tau = tau2_prerequisite_closure()
        instance = generate_registrar_instance(12, seed=2)
        assert compile_plan(tau).publish_bytes(instance) == _fresh_document(tau, instance)


# ---------------------------------------------------------------------------
# Commit chains: migrated bytes vs the full-render oracle.
# ---------------------------------------------------------------------------


class TestRepublishChains:
    @pytest.mark.parametrize("encoded", [False, True])
    def test_delta_chain_matches_full_render(self, encoded):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(
            generate_registrar_instance(12, max_prereqs=2, seed=7),
            name="reg",
            encoded=encoded,
        )
        deltas = [
            Delta.insert("course", ("cs901", "Fancy Topics", "CS")),
            Delta.insert("prereq", ("cs901", "cs1")),
            Delta(
                inserted={
                    "course": {("cs902", "Fancier Topics", "CS")},
                    "prereq": {("cs902", "cs901")},
                }
            ),
            Delta.delete("prereq", ("cs901", "cs1")),
            Delta.delete("course", ("cs901", "Fancy Topics", "CS")),
        ]
        for delta in deltas:
            handle.commit(delta)
            for output, indent in (("bytes", 2), ("compact", None)):
                produced = server.publish("tau1", output=output)
                assert produced == _fresh_document(tau, handle.instance, indent=indent)

    def test_publish_after_commit_reuses_rendered_spans(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(
            generate_registrar_instance(30, max_prereqs=2, seed=13),
            name="reg",
            encoded=True,
        )
        server.publish("tau1", output="bytes")
        handle.commit(Delta.insert("course", ("cs999", "New Course", "CS")))
        server.publish("tau1", output="bytes")
        cache = server.stats().as_dict()["views"][0]["cache"]
        assert cache["rendered_hits"] > 0
        assert cache["rendered_misses"] > 0


# ---------------------------------------------------------------------------
# No tree materialisation on the bytes path.
# ---------------------------------------------------------------------------


class TestNoTreeMaterialisation:
    def test_bytes_output_builds_no_tree_nodes(self, monkeypatch):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(generate_registrar_instance(10, seed=3), name="reg")
        constructed = []
        original = TreeNode.__post_init__

        def probe(node):
            constructed.append(node)
            original(node)

        monkeypatch.setattr(TreeNode, "__post_init__", probe)
        cold = server.publish("tau1", output="bytes")
        hot = server.publish("tau1", output="bytes")
        compact = server.publish("tau1", output="compact")
        assert cold == hot and cold and compact
        assert constructed == []
        # The probe itself works: a tree publish does build nodes.
        server.publish("tau1", output="tree")
        assert constructed


# ---------------------------------------------------------------------------
# Observability: render-cache counters through stats() and explain().
# ---------------------------------------------------------------------------


class TestRenderCacheStats:
    def test_counters_surface_in_stats_and_explain(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(generate_registrar_instance(10, seed=4), name="reg")
        first = server.publish("tau1", output="bytes")
        assert server.publish("tau1", output="bytes") == first
        stats = server.stats()
        cache = stats.as_dict()["views"][0]["cache"]
        assert cache["rendered_misses"] > 0
        assert cache["rendered_hits"] > 0  # the second publish is a cache hit
        assert "rendered spans" in stats.describe()
        report = server.explain("tau1")
        assert report.as_dict()["cache"]["rendered_hits"] == cache["rendered_hits"]
        assert "render cache:" in report.describe()


# ---------------------------------------------------------------------------
# Iterative serialisers on Proposition-1-depth trees.
# ---------------------------------------------------------------------------


class TestDeepTrees:
    def _chain(self, depth: int) -> TreeNode:
        node = TreeNode("a")
        for _ in range(depth):
            node = TreeNode("a", (node,))
        return node

    def test_to_xml_survives_deep_chains(self):
        depth = 5000  # far beyond the default recursion limit
        document = to_xml(self._chain(depth))
        lines = document.split("\n")
        assert len(lines) == 2 * depth + 1
        assert lines[0] == "<a>" and lines[-1] == "</a>"
        assert lines[depth] == " " * (2 * depth) + "<a/>"

    def test_to_compact_xml_survives_deep_chains(self):
        depth = 5000
        assert to_compact_xml(self._chain(depth)) == (
            "<a>" * depth + "<a/>" + "</a>" * depth
        )


# ---------------------------------------------------------------------------
# Degenerate roots fall back to the event serialiser, errors included.
# ---------------------------------------------------------------------------


class TestDegenerateRoots:
    def test_virtual_roots_are_rejected_at_definition(self):
        # The fallback branch of the bytes driver also guards virtual roots,
        # but the transducer layer already forbids them outright.
        from repro.core.transducer import TransducerDefinitionError

        x = Variable("x")
        phi = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
        builder = transducer("vroot", root="v")
        builder.virtual("v")
        builder.start().emit("q", "a", phi)
        builder.state("q").on("a").leaf()
        with pytest.raises(TransducerDefinitionError, match="root tag cannot be virtual"):
            builder.build()

    def test_text_root_keeps_the_event_serializer_semantics(self):
        # A text root is constructible; the bytes path must surface the
        # event serialiser's document-rule error, message included.
        from repro.core.rules import TransductionRule
        from repro.core.transducer import make_transducer
        from repro.xmltree.tree import TEXT_TAG

        tau = make_transducer(
            [TransductionRule("q0", TEXT_TAG, ())], start_state="q0", root_tag=TEXT_TAG
        )
        schema = RelationalSchema.from_attributes({"P": ("v",)})
        instance = Instance(schema, {"P": [("p1",)]})
        with pytest.raises(ValueError, match="outside the document root"):
            compile_plan(tau).publish_bytes(instance)


# ---------------------------------------------------------------------------
# The write= contract and budget parity with tree mode.
# ---------------------------------------------------------------------------


class TestContracts:
    def test_write_sink_returns_empty_string(self):
        tau = tau1_prerequisite_hierarchy()
        instance = generate_registrar_instance(8, seed=6)
        plan = compile_plan(tau)
        document = plan.publish_bytes(instance)
        chunks: list[str] = []
        assert plan.publish_bytes(instance, write=chunks.append) == ""
        assert "".join(chunks) == document

    def test_budget_parity_with_tree_mode(self):
        instance = binary_counter_instance(2)

        def minimal_budget(publish) -> int:
            low, high = 1, 2000
            while low < high:
                mid = (low + high) // 2
                plan = compile_plan(binary_counter_transducer(), max_nodes=mid)
                try:
                    publish(plan)
                except TransformationLimitError:
                    low = mid + 1
                else:
                    high = mid
            return low

        tree_minimum = minimal_budget(lambda plan: plan.publish(instance))
        bytes_minimum = minimal_budget(lambda plan: plan.publish_bytes(instance))
        assert bytes_minimum == tree_minimum
        with pytest.raises(TransformationLimitError):
            compile_plan(
                binary_counter_transducer(), max_nodes=tree_minimum - 1
            ).publish_bytes(instance)
