"""Delta-driven incremental maintenance, tested against the full-publish oracle.

Every layer of the pipeline is differential-tested: deltas against explicit
set algebra, ``execute_delta`` against plain recomputation, ``republish``
and lineage-migrated publishes against a from-scratch publish on a fresh
plan (tree- and byte-wise) -- including random update sequences with
deletions that empty a relation, and blow-up workloads.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from repro.engine import RepublishResult, compile_plan
from repro.incremental import Delta, EditScript, diff_trees
from repro.logic.cq import (
    ConjunctiveQuery,
    RelationAtom,
    UnionOfConjunctiveQueries,
    equality,
)
from repro.logic.fo import And, Eq, Exists, FormulaQuery, Not, Rel
from repro.logic.terms import Constant, Variable
from repro.query import plan_query
from repro.relational.errors import ArityError, UnknownRelationError
from repro.relational.instance import Instance
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    example_registrar_instance,
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.diff import DeleteSubtree, InsertSubtree, ReplaceSubtree
from repro.xmltree.serialize import IncrementalXmlSerializer, to_compact_xml, to_xml
from repro.xmltree.tree import text_node, tree


# ---------------------------------------------------------------------------
# Relational layer: Delta, apply_delta, Relation.diff / added / removed.
# ---------------------------------------------------------------------------


class TestDelta:
    def test_value_semantics_and_empty_entries_dropped(self):
        a = Delta(inserted={"R": [("a", "b")], "S": []}, deleted={"R": ()})
        b = Delta(inserted={"R": {("a", "b")}})
        assert a == b
        assert hash(a) == hash(b)
        assert a.touched_relations() == frozenset({"R"})
        assert a.change_count() == 1
        assert not Delta()
        assert Delta().is_empty()

    def test_apply_delta_semantics(self, registrar_instance):
        delta = Delta(
            inserted={"prereq": [("cs450", "cs340")]},
            deleted={"prereq": [("cs240", "cs101")]},
        )
        updated = registrar_instance.apply_delta(delta)
        assert ("cs450", "cs340") in updated["prereq"]
        assert ("cs240", "cs101") not in updated["prereq"]
        # A tuple both deleted and inserted ends up present.
        both = Delta(
            inserted={"prereq": [("cs240", "cs101")]},
            deleted={"prereq": [("cs240", "cs101")]},
        )
        assert ("cs240", "cs101") in registrar_instance.apply_delta(both)["prereq"]

    def test_apply_delta_reuses_untouched_relations_by_identity(self, registrar_instance):
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        updated = registrar_instance.apply_delta(delta)
        assert updated["course"] is registrar_instance["course"]
        assert updated["prereq"] is not registrar_instance["prereq"]
        assert updated.schema is registrar_instance.schema

    def test_apply_noop_delta_returns_self(self, registrar_instance):
        noop = Delta(
            inserted={"prereq": [("cs240", "cs101")]},  # already present
            deleted={"prereq": [("nope", "nope")]},  # absent
        )
        assert registrar_instance.apply_delta(noop) is registrar_instance
        assert registrar_instance.apply_delta(Delta()) is registrar_instance

    def test_apply_delta_unknown_relation(self, registrar_instance):
        with pytest.raises(UnknownRelationError):
            registrar_instance.apply_delta(Delta.insert("enrolled", ("s1", "cs101")))

    def test_normalized_keeps_only_effective_changes(self, registrar_instance):
        delta = Delta(
            inserted={"prereq": [("cs240", "cs101"), ("cs450", "cs340")]},
            deleted={"prereq": [("cs340", "cs240"), ("zz", "zz")]},
        )
        effective = delta.normalized(registrar_instance)
        assert effective.inserted_into("prereq") == frozenset({("cs450", "cs340")})
        assert effective.deleted_from("prereq") == frozenset({("cs340", "cs240")})
        # Round trip: inverting the normalized delta restores the instance.
        updated = registrar_instance.apply_delta(effective)
        assert updated.apply_delta(effective.inverted()) == registrar_instance

    def test_normalized_rejects_wrong_arity_tuples(self, registrar_instance):
        with pytest.raises(ArityError):
            Delta.delete("prereq", ("cs240",)).normalized(registrar_instance)
        with pytest.raises(ArityError):
            Delta.insert("prereq", ("a", "b", "c")).normalized(registrar_instance)

    def test_instance_diff_round_trips(self, registrar_instance):
        updated = registrar_instance.apply_delta(
            Delta(
                inserted={"course": [("cs999", "Capstone", "CS")]},
                deleted={"prereq": [("cs240", "cs101")]},
            )
        )
        delta = registrar_instance.diff(updated)
        assert registrar_instance.apply_delta(delta) == updated
        assert Delta.from_instances(updated, registrar_instance) == delta.inverted()
        assert registrar_instance.diff(registrar_instance).is_empty()

    def test_relation_fast_paths(self, registrar_instance):
        prereq = registrar_instance["prereq"]
        assert prereq.added([("cs240", "cs101")]) is prereq
        assert prereq.added([]) is prereq
        assert prereq.removed([("zz", "zz")]) is prereq
        assert prereq.removed([]) is prereq
        grown = prereq.added([("cs450", "cs340")])
        assert len(grown) == len(prereq) + 1
        assert grown.diff(grown) == (frozenset(), frozenset())
        added, removed = prereq.diff(grown)
        assert added == frozenset({("cs450", "cs340")}) and not removed
        with pytest.raises(ArityError):
            prereq.diff(registrar_instance["course"])
        with pytest.raises(ArityError):
            prereq.added([("only-one",)])
        with pytest.raises(ArityError):
            prereq.removed([("only-one",)])  # a typo'd delete must not no-op


# ---------------------------------------------------------------------------
# Query layer: execute_delta against plain recomputation.
# ---------------------------------------------------------------------------


def _prereq_join_query() -> ConjunctiveQuery:
    c1, c2, t, d = Variable("c1"), Variable("c2"), Variable("t"), Variable("d")
    return ConjunctiveQuery(
        (c1, c2),
        (RelationAtom("prereq", (c1, c2)), RelationAtom("course", (c2, t, d))),
        (equality(d, Constant("CS")),),
    )


def _random_registrar_delta(rng: random.Random, instance: Instance) -> Delta:
    inserted: dict[str, list] = {}
    deleted: dict[str, list] = {}
    courses = sorted(row[0] for row in instance["course"])
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            name = f"cs9{rng.randrange(100):02d}"
            inserted.setdefault("course", []).append(
                (name, f"Course {name}", rng.choice(["CS", "Math"]))
            )
        elif kind == 1 and len(courses) >= 2:
            inserted.setdefault("prereq", []).append(
                (rng.choice(courses), rng.choice(courses))
            )
        elif kind == 2 and instance["prereq"].tuples:
            deleted.setdefault("prereq", []).append(
                rng.choice(sorted(instance["prereq"].tuples))
            )
        elif kind == 3 and instance["course"].tuples:
            deleted.setdefault("course", []).append(
                rng.choice(sorted(instance["course"].tuples))
            )
        else:
            deleted.setdefault("prereq", []).extend(instance["prereq"].tuples)
    return Delta(inserted, deleted)


class TestQueryDelta:
    def test_untouched_relations_are_free(self, registrar_instance):
        plan = plan_query(_prereq_join_query())
        change = plan.execute_delta(
            registrar_instance, Delta.insert("course", ("m1", "Algebra", "Math"))
        )
        # The course relation *is* scanned; use a relation the plan ignores.
        assert change.strategy in {"delta", "delta+rederive"}
        x = Variable("x")
        only_prereq = plan_query(
            ConjunctiveQuery((x,), (RelationAtom("prereq", (x, x)),))
        )
        change = only_prereq.execute_delta(
            registrar_instance, Delta.insert("course", ("m1", "Algebra", "Math"))
        )
        assert change.strategy == "none" and change.is_empty()

    def test_insert_only_delta_avoids_rederivation(self, registrar_instance):
        plan = plan_query(_prereq_join_query())
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        change = plan.execute_delta(registrar_instance, delta)
        assert change.strategy == "delta"
        assert change.added == frozenset({("cs450", "cs340")})
        assert not change.removed

    def test_random_deltas_match_recomputation(self):
        query = _prereq_join_query()
        plan = plan_query(query)
        rng = random.Random(42)
        instance = generate_registrar_instance(30, max_prereqs=2, seed=3)
        for _ in range(25):
            delta = _random_registrar_delta(rng, instance)
            prev = plan.execute(instance)
            updated = instance.apply_delta(delta)
            change = plan.execute_delta(instance, delta, prev_answers=prev)
            expected = plan.execute(updated)
            assert change.apply(prev) == expected
            assert change.added == expected - prev
            assert change.removed == prev - expected
            instance = updated

    def test_self_join_needs_per_occurrence_plans(self, registrar_instance):
        # prereq >< prereq: a new edge must join against *old* edges on both
        # sides, which a wholesale override of the relation would miss.
        c1, c2, c3 = Variable("c1"), Variable("c2"), Variable("c3")
        plan = plan_query(
            ConjunctiveQuery(
                (c1, c3),
                (RelationAtom("prereq", (c1, c2)), RelationAtom("prereq", (c2, c3))),
            )
        )
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected
        assert ("cs450", "cs240") in change.added  # new edge >< old edge

    def test_deletion_with_alternative_derivation_survives(self):
        # ans(x) :- R(x, y): deleting one supporting tuple of an answer with
        # two derivations must not remove the answer (DRed rederivation).
        x, y = Variable("x"), Variable("y")
        instance = Instance.from_dict({"R": [("a", "b"), ("a", "c"), ("d", "e")]})
        plan = plan_query(ConjunctiveQuery((x,), (RelationAtom("R", (x, y)),)))
        change = plan.execute_delta(instance, Delta.delete("R", ("a", "b")))
        assert change.strategy == "delta+rederive"
        assert not change.removed and not change.added
        change = plan.execute_delta(instance, Delta.delete("R", ("d", "e")))
        assert change.removed == frozenset({("d",)})

    def test_negation_falls_back_to_recomputation(self, registrar_instance):
        cno, title, dept = Variable("cno"), Variable("title"), Variable("dept")
        c2, t2, d2 = Variable("c2"), Variable("t2"), Variable("d2")
        no_db = Not(
            Exists(
                (c2, t2, d2),
                And(
                    (
                        Rel("prereq", (cno, c2)),
                        Rel("course", (c2, t2, d2)),
                        Eq(t2, Constant("Databases")),
                    )
                ),
            )
        )
        query = FormulaQuery(
            (cno,),
            Exists((title, dept), And((Rel("course", (cno, title, dept)), no_db))),
        )
        plan = plan_query(query)
        assert plan is not None
        assert not plan.is_monotone()
        assert "recompute fallback" in plan.delta_strategy()
        assert "recompute fallback" in plan.explain()
        delta = Delta.insert("prereq", ("cs340", "cs450"))
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        assert change.strategy == "recompute"
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected
        assert ("cs340",) in change.removed  # cs340 now requires the DB course

    def test_monotone_strategy_is_flagged_in_explain(self):
        plan = plan_query(_prereq_join_query())
        assert plan.is_monotone()
        assert "per-occurrence delta plans" in plan.explain()
        assert "prereq" in plan.scan_relations()

    def test_ucq_delta(self, registrar_instance):
        x, y, t, d = Variable("x"), Variable("y"), Variable("t"), Variable("d")
        ucq = UnionOfConjunctiveQueries(
            (
                ConjunctiveQuery((x,), (RelationAtom("prereq", (x, y)),)),
                ConjunctiveQuery(
                    (x,),
                    (RelationAtom("course", (x, t, d)),),
                    (equality(d, Constant("Math")),),
                ),
            )
        )
        plan = plan_query(ucq)
        delta = Delta(
            inserted={"course": [("m2", "Topology", "Math")]},
            deleted={"prereq": list(registrar_instance["prereq"].tuples)},
        )
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected


# ---------------------------------------------------------------------------
# xmltree layer: edit scripts.
# ---------------------------------------------------------------------------


class TestEditScript:
    def test_identical_trees_diff_to_empty(self):
        doc = tree("db", tree("a", "b"), tree("c"))
        assert diff_trees(doc, doc).is_empty()
        assert diff_trees(doc, tree("db", tree("a", "b"), tree("c"))).is_empty()

    def test_root_replacement(self):
        old, new = tree("db", "a"), tree("catalog", "a")
        script = diff_trees(old, new)
        assert [type(e) for e in script] == [ReplaceSubtree]
        assert script.apply(old) == new

    @pytest.mark.parametrize(
        "old,new",
        [
            (tree("r", "a", "b", "c"), tree("r", "a", "x", "c")),  # replace middle
            (tree("r", "a", "c"), tree("r", "a", "b", "c")),  # insert middle
            (tree("r", "a", "b", "c"), tree("r", "a", "c")),  # delete middle
            (tree("r"), tree("r", "a", "b")),  # grow from empty
            (tree("r", "a", "b"), tree("r")),  # shrink to empty
            (
                tree("r", tree("a", text_node("x"))),
                tree("r", tree("a", text_node("y"))),  # text change
            ),
            (
                tree("r", tree("a", "b", "c"), "d"),
                tree("r", "d", tree("a", "c", "b")),  # reordering
            ),
        ],
    )
    def test_apply_reproduces_new_tree(self, old, new):
        script = diff_trees(old, new)
        assert script.apply(old) == new
        # And the inverse direction also round-trips.
        assert diff_trees(new, old).apply(new) == old

    def test_nested_edit_paths(self):
        old = tree("db", tree("a", tree("b", "x", "y"), "k"), "t")
        new = tree("db", tree("a", tree("b", "x", "z", "y"), "k"), "t")
        script = diff_trees(old, new)
        assert len(script) == 1
        (edit,) = script
        assert isinstance(edit, InsertSubtree) and edit.path == (1, 1, 2)
        assert script.apply(old) == new

    def test_describe_mentions_paths_and_xml(self):
        old = tree("db", "a")
        new = tree("db", "a", tree("course", text_node("cs1")))
        text = diff_trees(old, new).describe()
        assert "insert /2" in text and "<course>cs1</course>" in text
        deleted = diff_trees(new, old).describe()
        assert deleted == "delete /2"

    def test_apply_errors(self):
        doc = tree("r", "a")
        with pytest.raises(ValueError):
            EditScript((DeleteSubtree(()),)).apply(doc)
        with pytest.raises(ValueError):
            EditScript((DeleteSubtree((5,)),)).apply(doc)
        with pytest.raises(ValueError):
            EditScript((InsertSubtree((1, 3), tree("x")),)).apply(doc)

    def test_diff_survives_recursion_limit_on_deep_spines(self):
        import sys

        from repro.xmltree import trees_equal

        depth = sys.getrecursionlimit() + 500
        old = tree("leaf")
        peer = tree("leaf")
        for _ in range(depth):
            old = tree("a", old)
            peer = tree("a", peer)
        new = tree("a", peer, "extra")
        assert trees_equal(old, peer)
        assert not trees_equal(old, new)
        script = diff_trees(tree("r", old), tree("r", new))
        assert trees_equal(script.apply(tree("r", old)), tree("r", new))


# ---------------------------------------------------------------------------
# Engine layer: republish against the full-publish oracle.
# ---------------------------------------------------------------------------


def _assert_matches_oracle(tau, result: RepublishResult, prev_tree) -> None:
    oracle_plan = compile_plan(tau, max_nodes=10**6)
    oracle_tree = oracle_plan.publish(result.instance)
    assert result.tree == oracle_tree
    streamed = IncrementalXmlSerializer().feed_all(
        oracle_plan.publish_events(result.instance)
    )
    assert to_xml(result.tree) == streamed.finish()
    assert result.edits.apply(prev_tree) == result.tree


class TestRepublish:
    @pytest.mark.parametrize("view", ["tau1", "tau2", "tau3"])
    def test_single_update_matches_full_publish(self, view, request):
        tau = request.getfixturevalue(view)
        instance = example_registrar_instance()
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        for delta in (
            Delta.insert("prereq", ("cs450", "cs340")),
            Delta.delete("prereq", ("cs240", "cs101")),
            Delta.insert("course", ("cs500", "Compilers", "CS")),
            Delta.delete("course", ("math101", "Calculus", "Math")),
        ):
            result = plan.republish(instance, delta, prev_tree=prev_tree)
            _assert_matches_oracle(tau, result, prev_tree)

    def test_chained_results_feed_back_in(self, tau1):
        instance = example_registrar_instance()
        plan = compile_plan(tau1)
        result = plan.republish(instance, Delta.insert("prereq", ("cs450", "cs340")))
        previous = result.tree
        result = plan.republish(result, Delta.delete("prereq", ("cs240", "cs101")))
        _assert_matches_oracle(tau1, result, previous)

    def test_empty_delta_is_free(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        prev_tree = plan.publish(registrar_instance)
        result = plan.republish(
            registrar_instance,
            Delta.insert("prereq", ("cs240", "cs101")),  # already present
            prev_tree=prev_tree,
        )
        assert result.instance is registrar_instance
        assert result.tree is prev_tree
        assert result.edits.is_empty()
        assert result.delta.is_empty()

    def test_invalidation_is_per_rule(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        before = plan.cache_stats
        result = plan.republish(registrar_instance, Delta.insert("prereq", ("cs450", "cs340")))
        stats = plan.cache_stats
        assert stats.invalidated == before.invalidated + result.invalidated
        assert result.invalidated > 0
        assert result.retained > 0
        # tau1's cno/title/text rules read only registers: always retained.
        assert result.retained > result.invalidated

    def test_unchanged_subtrees_are_shared_by_identity(self, tau1):
        instance = generate_registrar_instance(20, max_prereqs=2, seed=4)
        plan = compile_plan(tau1)
        prev_tree = plan.publish(instance)
        result = plan.republish(
            instance, Delta.insert("course", ("zz01", "New Elective", "CS")),
            prev_tree=prev_tree,
        )
        prev_children = {id(child): child for child in prev_tree.children}
        shared = [c for c in result.tree.children if id(c) in prev_children]
        assert shared  # most course subtrees are the same objects as before
        _assert_matches_oracle(tau1, result, prev_tree)

    def test_republish_survives_cache_eviction(self, tau1):
        from repro.engine import Engine

        plan = Engine(cache_instances=1).compile(tau1)
        instance = example_registrar_instance()
        prev_tree = plan.publish(instance)
        plan.publish(generate_registrar_instance(8, seed=1))  # evicts `instance`
        result = plan.republish(
            instance, Delta.insert("prereq", ("cs450", "cs340")), prev_tree=prev_tree
        )
        _assert_matches_oracle(tau1, result, prev_tree)
        assert result.invalidated == 0 and result.retained == 0  # cold start

    @pytest.mark.parametrize("view,steps,size", [("tau1", 10, 25), ("tau3", 8, 20)])
    def test_random_update_sequences(self, view, steps, size, request):
        tau = request.getfixturevalue(view)
        rng = random.Random(hash(view) & 0xFFFF)
        instance = generate_registrar_instance(size, max_prereqs=2, seed=6)
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        result = RepublishResult(instance, prev_tree, EditScript(), Delta())
        emptied = False
        for step in range(steps):
            if step == steps // 2:
                # The required edge case: a deletion emptying a relation.
                delta = Delta.delete("prereq", *result.instance["prereq"].tuples)
                emptied = True
            else:
                delta = _random_registrar_delta(rng, result.instance)
            previous = result.tree
            result = plan.republish(result, delta)
            _assert_matches_oracle(tau, result, previous)
        assert emptied

    def test_random_update_sequence_tau2_virtual_relation_registers(self, tau2):
        rng = random.Random(9)
        instance = generate_registrar_instance(10, max_prereqs=2, seed=2)
        plan = compile_plan(tau2, max_nodes=10**6)
        result = RepublishResult(instance, plan.publish(instance), EditScript(), Delta())
        for _ in range(3):
            delta = _random_registrar_delta(rng, result.instance)
            previous = result.tree
            result = plan.republish(result, delta)
            _assert_matches_oracle(tau2, result, previous)

    def test_blowup_workload_with_cyclic_updates(self):
        tau = chain_of_diamonds_transducer()
        instance = chain_of_diamonds_instance(5)
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        for delta in (
            Delta.insert("R", ("a5", "a0")),  # close a cycle: stop condition
            Delta.delete("R", ("a0", "b0_1")),  # halve the first diamond
            Delta.delete("R", *chain_of_diamonds_instance(5)["R"].tuples),
        ):
            result = plan.republish(instance, delta, prev_tree=prev_tree)
            _assert_matches_oracle(tau, result, prev_tree)

    def test_budget_still_enforced_after_republish(self):
        from repro.core.runtime import TransformationLimitError

        tau = chain_of_diamonds_transducer()
        instance = chain_of_diamonds_instance(4)
        plan = compile_plan(tau, max_nodes=10**6)
        plan.publish(instance)
        with pytest.raises(TransformationLimitError):
            plan.republish(instance, Delta.insert("R", ("x", "a0")), max_nodes=5)

    def test_source_relation_with_register_like_name_is_invalidated(self):
        # A *source* relation that happens to be called ``Reg_item`` is only
        # shadowed by the overlay for item-tagged nodes; rules for other
        # tags genuinely read it, so deltas on it must invalidate them.
        from repro.engine import TransducerBuilder

        x = Variable("x")
        phi_doc = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
        phi_item = ConjunctiveQuery((x,), (RelationAtom("Reg_item", (x,)),))
        builder = TransducerBuilder("reg-named-source")
        builder.start().emit("q", "doc", phi_doc)
        builder.state("q").on("doc").emit("q", "item", phi_item)
        tau = builder.build()
        instance = Instance.from_dict({"P": [("p1",)], "Reg_item": [("a",)]})
        plan = compile_plan(tau)
        prev_tree = plan.publish(instance)
        result = plan.republish(instance, Delta.insert("Reg_item", ("b",)), prev_tree=prev_tree)
        _assert_matches_oracle(tau, result, prev_tree)
        assert result.tree.find_all("item") != prev_tree.find_all("item")
        previous = result.tree
        result = plan.republish(result, Delta.delete("Reg_item", ("a",), ("b",)))
        _assert_matches_oracle(tau, result, previous)
        assert not result.tree.find_all("item")

    def test_rule_over_the_active_domain_is_invalidated(self):
        # The inner rule names no source relation, but its unsafe query
        # ranges over the active domain, which a delta on R grows.
        from repro.engine import TransducerBuilder
        from repro.relational.schema import RelationSchema, RelationalSchema

        x, y = Variable("x"), Variable("y")
        schema = RelationalSchema([RelationSchema("E", 2), RelationSchema("R", 1)])
        base = Instance(schema, {"E": [("a", "b")], "R": [("c",)]})
        builder = TransducerBuilder("domain")
        builder.start().emit(
            "q", "a", ConjunctiveQuery((x,), (RelationAtom("E", (x, y)),))
        )
        builder.state("q").on("a").emit(
            "q", "b", FormulaQuery((x,), Not(Rel("Reg_a", (x,))))
        )
        tau = builder.build()
        plan = compile_plan(tau)
        plan.publish_bytes(base)
        child = base.apply_delta(Delta.insert("R", ("d",)))
        document = plan.publish_bytes(child)
        assert plan.cache_stats.migrations == 1
        assert document == compile_plan(tau).publish_bytes(child)
        assert document.count("<b/>") == 3

    def test_cache_stats_typed_dataclass_and_as_dict(self, tau1, registrar_instance):
        from repro.engine import CacheStats

        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        plan.republish(registrar_instance, Delta.insert("prereq", ("cs450", "cs340")))
        stats = plan.cache_stats
        assert isinstance(stats, CacheStats)
        as_dict = stats.as_dict()
        for key in ("hits", "misses", "evictions", "instances", "invalidated", "retained"):
            assert as_dict[key] == getattr(stats, key)
        assert as_dict["hit_rate"] == stats.hit_rate


# ---------------------------------------------------------------------------
# Subscriptions: the serving-layer form of a maintained view.
# ---------------------------------------------------------------------------


def _assert_subscription_matches_fresh_plan(tau, subscription, handle) -> None:
    oracle_plan = compile_plan(tau, max_nodes=10**6)
    assert subscription.tree == oracle_plan.publish(handle.instance)
    assert to_xml(subscription.tree) == oracle_plan.publish_bytes(handle.instance)
    assert to_compact_xml(subscription.tree) == oracle_plan.publish_bytes(
        handle.instance, indent=None
    )


class TestSubscribedView:
    def test_stream_of_updates_matches_fresh_plan(self, tau1):
        from repro.serve import ViewServer

        server = ViewServer()
        server.register_view("view", tau1)
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("view")
        handle.commit(Delta.insert("course", ("cs500", "Compilers", "CS")))
        handle.commit(Delta.insert("prereq", ("cs500", "cs340"), ("cs500", "cs450")))
        handle.commit(Delta.delete("prereq", ("cs240", "cs101")))
        events = subscription.drain()
        assert [event.version for event in events] == [1, 2, 3]
        assert events[-1].tree is subscription.tree
        _assert_subscription_matches_fresh_plan(tau1, subscription, handle)

    def test_accepts_precompiled_plan(self, tau1, registrar_instance):
        from repro.serve import ViewServer

        plan = compile_plan(tau1)
        server = ViewServer()
        view = server.register_view("view", plan)
        assert view.plan_for(None) is plan
        handle = server.attach(registrar_instance)
        subscription = server.subscribe(view)
        handle.commit(Delta.delete("prereq", *registrar_instance["prereq"].tuples))
        _assert_subscription_matches_fresh_plan(tau1, subscription, handle)


# ---------------------------------------------------------------------------
# Lineage: a child version's publish migrates its parent's cached state.
# ---------------------------------------------------------------------------


def _new_prereq(instance: Instance) -> Delta:
    """One effective ``prereq`` edge between existing generated courses."""
    names = sorted(row[0] for row in instance["course"])
    present = instance["prereq"].tuples
    edge = next(
        (later, earlier)
        for later in reversed(names)
        for earlier in names
        if earlier < later and (later, earlier) not in present
    )
    return Delta.insert("prereq", edge)


class TestLineage:
    DELTA = Delta.insert("prereq", ("cs450", "cs340"))

    def test_parent_reference_is_weak(self, tau1):
        parent = example_registrar_instance()
        child = parent.apply_delta(self.DELTA)
        ref, delta = child._lineage
        assert isinstance(ref, weakref.ref) and ref() is parent
        assert delta is self.DELTA
        assert parent.apply_delta(Delta())._lineage is None  # no-op: self
        del parent
        gc.collect()
        assert ref() is None
        plan = compile_plan(tau1)  # parent gone: a cold start, still correct
        assert plan.publish_bytes(child) == compile_plan(tau1).publish_bytes(child)

    def test_pruned_versions_are_collected(self, tau1):
        from repro.serve import ViewServer

        server = ViewServer()
        server.register_view("view", tau1)
        handle = server.attach(example_registrar_instance())
        for course in ("cs601", "cs602", "cs603"):
            handle.commit(Delta.insert("course", (course, "Elective", "CS")))
        refs = [weakref.ref(version.instance) for version in handle.history()[:-1]]
        assert handle.prune(keep_last=1) == 3
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert server.publish("view", output="bytes") == compile_plan(
            tau1
        ).publish_bytes(handle.instance)

    def test_pickling_drops_the_lineage(self):
        parent = example_registrar_instance()
        child = parent.apply_delta(self.DELTA)
        copy = pickle.loads(pickle.dumps(child))
        assert copy == child
        assert copy._lineage is None
        assert child._lineage is not None  # the original keeps its parent

    def test_delta_is_normalized_against_the_parent(self, tau1):
        # A delta full of no-ops: an insertion already present, a deletion
        # of an absent tuple, and one effective insertion.
        parent = example_registrar_instance()
        noisy = Delta(
            inserted={"prereq": [("cs240", "cs101"), ("cs450", "cs340")]},
            deleted={"course": [("zz99", "Nothing", "None")]},
        )
        child = parent.apply_delta(noisy)
        plan = compile_plan(tau1)
        plan.publish_bytes(parent)
        before = plan.cache_stats
        document = plan.publish_bytes(child)
        after = plan.cache_stats
        assert after.retained > before.retained  # migrated, not cold
        assert document == compile_plan(tau1).publish_bytes(child)
        # "course" is not touched effectively, so no rule reading only
        # course is invalidated: the invalidation matches the clean delta.
        clean = compile_plan(tau1)
        clean.publish_bytes(parent)
        clean.publish_bytes(parent.apply_delta(self.DELTA))
        assert after.invalidated - before.invalidated == clean.cache_stats.invalidated

    @pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
    @pytest.mark.parametrize("view", ["tau1", "tau2", "tau3"])
    def test_child_publish_migrates_and_matches_a_fresh_plan(
        self, view, encoded, request
    ):
        from repro.relational.columnar import encoded_twin

        tau = request.getfixturevalue(view)
        parent = generate_registrar_instance(30, max_prereqs=2, seed=3)
        if encoded:
            parent = encoded_twin(parent)
        child = parent.apply_delta(_new_prereq(parent))
        plan = compile_plan(tau)
        plan.publish_bytes(parent)
        document = plan.publish_bytes(child)
        assert plan.cache_stats.retained > 0
        # The oracle: a fresh plan's row-kernel render of the same version.
        oracle = compile_plan(tau).publish_bytes(child.without_encoding())
        assert document == oracle

    @pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
    def test_long_commit_chain_matches_cold_renders(self, encoded):
        # Every version migrates its parent's state, so an error in the
        # per-rule invalidation would compound along the chain; the oracle
        # renders each version cold on a fresh row-kernel plan.
        from repro.serve import ViewServer

        views = {
            "tau1": tau1_prerequisite_hierarchy,
            "tau3": tau3_courses_without_db_prereq,
        }
        server = ViewServer()
        for name, factory in views.items():
            server.register_view(name, factory())
        handle = server.attach(
            generate_registrar_instance(30, max_prereqs=2, seed=4), encoded=encoded
        )
        rng = random.Random(17)
        for _ in range(30):
            handle.commit(_random_registrar_delta(rng, handle.instance))
            row = handle.instance.without_encoding()
            for name, factory in views.items():
                for indent in (2, None):
                    served = server.publish(name, output="bytes", indent=indent)
                    cold = compile_plan(factory()).publish_bytes(row, indent=indent)
                    assert served == cold, (handle.latest.index, name, indent)
        for name in views:
            assert server.view(name).plan_for(None).cache_stats.retained > 0

    def test_every_driver_of_a_child_version_migrates(self, tau2):
        parent = generate_registrar_instance(20, max_prereqs=2, seed=8)
        child = parent.apply_delta(_new_prereq(parent))
        oracle = compile_plan(tau2)
        drivers = {
            "tree": lambda plan: to_xml(plan.publish(child)),
            "events": lambda plan: IncrementalXmlSerializer()
            .feed_all(plan.publish_events(child))
            .finish(),
            "full": lambda plan: to_xml(plan.publish_full(child).tree),
            "bytes": lambda plan: plan.publish_bytes(child),
        }
        expected = to_xml(oracle.publish(child))
        for name, driver in drivers.items():
            plan = compile_plan(tau2)
            plan.publish(parent)
            assert driver(plan) == expected, name
            assert plan.cache_stats.retained > 0, name

    def test_evicted_parent_cold_starts(self, tau1):
        from repro.engine import Engine

        plan = Engine(cache_instances=1).compile(tau1)
        parent = example_registrar_instance()
        plan.publish_bytes(parent)
        plan.publish_bytes(generate_registrar_instance(8, seed=1))  # evicts parent
        child = parent.apply_delta(self.DELTA)
        assert plan.publish_bytes(child) == compile_plan(tau1).publish_bytes(child)
        stats = plan.cache_stats
        assert (stats.retained, stats.migrations, stats.cold_starts) == (0, 0, 1)

    def test_concurrent_parent_and_child_publishes_agree(self, tau1):
        parent = generate_registrar_instance(60, max_prereqs=2, seed=5)
        child = parent.apply_delta(_new_prereq(parent))
        oracle = compile_plan(tau1)
        expected = {
            (name, indent): oracle.publish_bytes(instance, indent=indent)
            for name, instance in (("parent", parent), ("child", child))
            for indent in (2, None)
        }
        # A tiny switch interval interleaves the parent's lock-free memo
        # writes with the child's migration of the parent's state.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                self._race(tau1, parent, child, expected)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _race(tau1, parent, child, expected) -> None:
        plan = compile_plan(tau1)
        plan.publish_bytes(parent)  # the parent's state is warm, but partly
        calls = {
            # Tree mode fills the parent's subtree cache, compact mode its
            # render cache, while both child publishes migrate from them.
            ("parent", 2): lambda: to_xml(plan.publish(parent)),
            ("parent", None): lambda: plan.publish_bytes(parent, indent=None),
            ("child", 2): lambda: plan.publish_bytes(child),
            ("child", None): lambda: plan.publish_bytes(child, indent=None),
        }
        barrier = threading.Barrier(len(calls))
        produced: dict = {}
        errors: list[BaseException] = []

        def run(key):
            barrier.wait()
            try:
                produced[key] = calls[key]()
            except BaseException as error:  # pragma: no cover - the failure
                errors.append(error)

        threads = [threading.Thread(target=run, args=(key,)) for key in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert produced == expected


# ---------------------------------------------------------------------------
# Migration cost: the pair-indexed partition, its index and its counters.
# ---------------------------------------------------------------------------


def _reference_partition(plan, prev_state, delta) -> dict:
    """The partition a full scan of the parent's caches yields: every
    configuration of every entry tested against the invalidated pairs."""
    invalid = plan._invalidated_pairs(delta)

    def split(cache, covers) -> tuple[dict, dict]:
        kept, parked = {}, {}
        for key, value in {**cache.stable, **cache.versioned}.items():
            (parked if covers(key, value) else kept)[key] = value
        return kept, parked

    def entry_covers(key, entry) -> bool:
        return any((t[0], t[1]) in invalid for t in entry.triples)

    retained, prior = split(
        prev_state.expansions, lambda triple, _: (triple[0], triple[1]) in invalid
    )
    subtrees, suspects = split(prev_state.subtrees, entry_covers)
    renders, render_suspects = split(prev_state.renders, entry_covers)
    return {
        "retained": retained,
        "prior": prior,
        "subtrees": subtrees,
        "suspects": suspects,
        "renders": renders,
        "render_suspects": render_suspects,
    }


def _partition(state) -> dict:
    def merged(cache) -> dict:
        return {**cache.stable, **cache.versioned}

    return {
        "retained": merged(state.expansions),
        "prior": dict(state.prior_expansions),
        "subtrees": merged(state.subtrees),
        "suspects": dict(state.suspects),
        "renders": merged(state.renders),
        "render_suspects": dict(state.render_suspects),
    }


def _assert_index_exact(plan, state) -> None:
    """Every versioned value is filed once, under exactly the pairs it
    covers, the stable parts hold only values no source delta can reach,
    and each entry's carried ``sensitive`` set is exactly its
    source-reading configurations."""
    for name in ("expansions", "subtrees", "renders"):
        cache = getattr(state, name)
        expected: dict = {}
        for key, value in cache.versioned.items():
            pairs = (
                frozenset({(key[0], key[1])}) if name == "expansions" else value.pairs
            )
            assert pairs, (name, key)
            expected.setdefault(pairs, set()).add(key)
        assert {p: keys for p, keys in cache.index.items() if keys} == expected, name
        if name == "expansions":
            assert not any(plan._pairs_of(t[0], t[1]) for t in cache.stable)
            continue
        for entry in [*cache.stable.values(), *cache.versioned.values()]:
            sensitive = {t for t in entry.triples if plan._pairs_of(t[0], t[1])}
            assert sorted(entry.sensitive, key=repr) == sorted(sensitive, key=repr)
            assert entry.pairs == {(t[0], t[1]) for t in sensitive}


class TestPairIndexedMigration:
    @pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
    def test_partition_matches_a_full_scan(self, encoded, monkeypatch):
        # Random commit chains through the serving layer: a tau3
        # subscription (tree publishes), tau1 bytes publishes at both
        # indents, publishes of older versions on a 3-state LRU (which
        # evict parents, so some children start cold), and prunes.
        from repro.engine.plan import PublishingPlan
        from repro.serve import ViewServer

        original = PublishingPlan._migrated_state
        compared = []

        def checked(self, prev_state, new_instance, delta):
            reference = _reference_partition(self, prev_state, delta)
            state = original(self, prev_state, new_instance, delta)
            assert _partition(state) == reference
            _assert_index_exact(self, state)
            compared.append(bool(reference["suspects"] or reference["render_suspects"]))
            return state

        monkeypatch.setattr(PublishingPlan, "_migrated_state", checked)
        views = {
            "tau1": tau1_prerequisite_hierarchy,
            "tau3": tau3_courses_without_db_prereq,
        }
        server = ViewServer(cache_instances=3)
        for name, factory in views.items():
            server.register_view(name, factory())
        handle = server.attach(
            generate_registrar_instance(25, max_prereqs=2, seed=6), encoded=encoded
        )
        subscription = server.subscribe("tau3")
        rng = random.Random(23)
        for step in range(40):
            handle.commit(_random_registrar_delta(rng, handle.instance))
            for indent in (2, None):
                server.publish("tau1", output="bytes", indent=indent)
            if step % 3 == 2:
                old = rng.choice(handle.history()).index
                server.publish("tau1", version=old, output="bytes")
                server.publish("tau1", version=old)
                server.publish("tau3", version=old)
            if step % 7 == 6:
                handle.prune(keep_last=3)
        row = handle.instance.without_encoding()
        for name, factory in views.items():
            assert server.publish(name, output="bytes") == compile_plan(
                factory()
            ).publish_bytes(row)
        assert subscription.tree == compile_plan(views["tau3"]()).publish(row)
        assert len(compared) > 40 and any(compared)
        caches = {view.name: view.cache for view in server.stats().views}
        assert sum(cache["migrations"] for cache in caches.values()) == len(compared)
        assert caches["tau1"]["cold_starts"] > 0  # evicted parents started cold

    def test_pair_index_stays_bounded_by_the_live_caches(self):
        # 500 commits, pruned to the last 8 versions every 16: the index
        # holds the live versioned entries, not every key ever created.
        from repro.serve import ViewServer

        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.register_view("tau3", tau3_courses_without_db_prereq())
        handle = server.attach(
            generate_registrar_instance(20, max_prereqs=2, seed=9), encoded=True
        )
        subscription = server.subscribe("tau3")
        rng = random.Random(31)
        for step in range(500):
            handle.commit(_random_registrar_delta(rng, handle.instance))
            server.publish("tau1", output="bytes")
            if step % 16 == 15:
                handle.prune(keep_last=8)
        assert subscription.version == handle.latest.index
        for name in ("tau1", "tau3"):
            plan = server.view(name).plan_for(None)
            assert plan.cache_stats.migrations > 400  # some deltas are no-ops
            live = indexed = 0
            for state in plan._states.values():
                _assert_index_exact(plan, state)
                for cache in (state.expansions, state.subtrees, state.renders):
                    live += len(cache.versioned)
                    indexed += sum(len(keys) for keys in cache.index.values())
            assert indexed == live, name

    def test_confirmation_fails_without_a_prior_expansion(self, tau1):
        # A suspect's configuration in an invalidated pair that the parent
        # never memoised must not be confirmed.
        parent = generate_registrar_instance(20, max_prereqs=2, seed=2)
        plan = compile_plan(tau1)
        plan.publish_bytes(parent)
        child = parent.apply_delta(_new_prereq(parent))
        state = plan._instance_state(child)
        key, entry = next(
            (key, entry)
            for key, entry in state.render_suspects.items()
            if entry.sensitive
        )
        assert plan._confirm(state, entry)
        state.render_suspects[key] = entry
        for triple in entry.sensitive:
            state.prior_expansions.pop(triple, None)
        from repro.engine.emit import _confirmed_entry

        assert _confirmed_entry(plan, state, key) is None

    def test_cold_starts_are_counted(self, tau1):
        # A ViewServer holding one state per plan: publishing a second
        # source evicts the first source's state, so its next version's
        # publish starts cold -- and says so in the stats.
        from repro.serve import ViewServer

        server = ViewServer(cache_instances=1)
        server.register_view("view", tau1)
        first = server.attach(example_registrar_instance(), name="a")
        second = server.attach(generate_registrar_instance(8, seed=1), name="b")
        edge = ("cs450", "cs340")
        server.publish("view", source=first, output="bytes")
        first.commit(Delta.insert("prereq", edge))
        server.publish("view", source=first, output="bytes")
        cache = server.stats().as_dict()["views"][0]["cache"]
        assert (cache["migrations"], cache["cold_starts"]) == (1, 0)
        server.publish("view", source=second, output="bytes")  # evicts a's state
        first.commit(Delta.delete("prereq", edge))
        document = server.publish("view", source=first, output="bytes")
        assert document == compile_plan(tau1).publish_bytes(first.instance)
        cache = server.stats().as_dict()["views"][0]["cache"]
        assert (cache["migrations"], cache["cold_starts"]) == (1, 1)
        assert "1 cold start(s)" in server.stats().describe()
