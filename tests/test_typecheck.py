"""Static output typechecking and streaming runtime validation.

Covers the :mod:`repro.typecheck` subsystem end to end: the DFA compilation
of content models (``Regex.to_dfa``), regular-language inclusion with
counterexample words, the three-valued static checker (with *replayable*
refutation witnesses), the O(depth) streaming validator at Proposition-1
depths, and the full serving integration --
``register_view(..., output_dtd=..., typecheck=...)`` rejection, proved
views publishing with zero validation cost, undecided views validating
streamingly with byte-identical output across every backend x output
combination, on a child version rendered from its parent's migrated state
or from scratch.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.analysis import witness_instance
from repro.analysis.composition import compose_path
from repro.core.dependency import DependencyGraph
from repro.engine.plan import compile_plan
from repro.relational.instance import Instance
from repro.serve import ViewRejected, ViewServer
from repro.typecheck import (
    OutputValidationError,
    StreamingValidator,
    Verdict,
    find_violation,
    inclusion_counterexample,
    typecheck_plan,
    typecheck_transducer,
    validate_events,
    validate_tree,
)
from repro.workloads.registrar import (
    REGISTRAR_SCHEMA,
    example_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.dtd import (
    DTD,
    Epsilon,
    Regex,
    alt,
    concat,
    dtd_from_wire,
    dtd_to_wire,
    empty,
    opt,
    plus,
    regex_from_wire,
    regex_to_wire,
    star,
    sym,
)
from repro.xmltree.events import tree_to_events

TEXT = sym("text")


def tau1_dtd() -> DTD:
    """A DTD every tau1 output conforms to (course content may be empty:
    the engine's stop condition prunes repeated configurations)."""
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": alt(
                Epsilon(), concat(sym("cno"), sym("title"), sym("prereq"))
            ),
            "prereq": star(sym("course")),
            "cno": opt(TEXT),
            "title": opt(TEXT),
        },
    )


def tau1_strict_dtd() -> DTD:
    """Requires childless courses -- refuted by any CS course."""
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title")),
            "cno": opt(TEXT),
            "title": opt(TEXT),
        },
    )


def tau3_exact_dtd() -> DTD:
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title")),
            "cno": TEXT,
            "title": TEXT,
        },
    )


def tau3_undecided_dtd() -> DTD:
    """tau3 is FO (``NOT EXISTS``): path composition is impossible, so the
    checker cannot build witnesses -- and the empty source conforms."""
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title"), sym("title")),
            "cno": opt(TEXT),
            "title": opt(TEXT),
        },
    )


def fo_courses_view():
    """A flat course list whose *child* queries are FO.

    Semantically every course element emits exactly one ``cno`` and one
    ``title`` (the register holds one tuple), but FO rule queries defeat
    both the exactly-one analysis and witness composition -- the canonical
    UNDECIDED case of Proposition 2 whose real outputs all conform.
    """
    from repro.engine.builder import TransducerBuilder
    from repro.logic.cq import ConjunctiveQuery, RelationAtom
    from repro.logic.fo import Exists, FormulaQuery, Rel
    from repro.logic.terms import Variable

    cno, title, dept = Variable("cno"), Variable("title"), Variable("dept")
    c, t = Variable("c"), Variable("t")
    psi = FormulaQuery(
        (cno, title), Exists((dept,), Rel("course", (cno, title, dept)))
    )
    fo_cno = FormulaQuery((c,), Exists((t,), Rel("Reg_course", (c, t))))
    fo_title = FormulaQuery((t,), Exists((c,), Rel("Reg_course", (c, t))))
    text_cno = ConjunctiveQuery((c,), (RelationAtom("Reg_cno", (c,)),))
    text_title = ConjunctiveQuery((t,), (RelationAtom("Reg_title", (t,)),))

    builder = TransducerBuilder("fo-courses", root="db", start="q0")
    builder.start().emit("q", "course", psi)
    builder.state("q").on("course").emit("q", "cno", fo_cno).emit(
        "q", "title", fo_title
    )
    builder.state("q").on("cno").emit_text(text_cno)
    builder.state("q").on("title").emit_text(text_title)
    return builder.build()


def fo_courses_dtd() -> DTD:
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title")),
            "cno": opt(TEXT),
            "title": opt(TEXT),
        },
    )


def chain_instance(length: int) -> Instance:
    """A linear prerequisite chain c0 -> c1 -> ... (only c0 is a CS course),
    so tau1 publishes one spine of depth ~2*length."""
    courses = [
        (f"c{i}", f"Course {i}", "CS" if i == 0 else "EE") for i in range(length)
    ]
    prereqs = [(f"c{i}", f"c{i + 1}") for i in range(length - 1)]
    return Instance(REGISTRAR_SCHEMA, {"course": courses, "prereq": prereqs})


# ---------------------------------------------------------------------------
# Regex.to_dfa (satellite: DFA compilation replacing NFA simulation).
# ---------------------------------------------------------------------------


def _random_regex(rng: random.Random, depth: int) -> Regex:
    if depth == 0:
        return rng.choice([Epsilon(), sym("a"), sym("b"), sym("c")])
    kind = rng.randrange(4)
    if kind == 0:
        return concat(_random_regex(rng, depth - 1), _random_regex(rng, depth - 1))
    if kind == 1:
        return alt(_random_regex(rng, depth - 1), _random_regex(rng, depth - 1))
    if kind == 2:
        return star(_random_regex(rng, depth - 1))
    return _random_regex(rng, depth - 1)


def _nfa_accepts(regex: Regex, word: tuple[str, ...]) -> bool:
    return regex.to_nfa().accepts(word)


class TestDfa:
    def test_dfa_equals_nfa_on_random_regexes(self):
        rng = random.Random(7)
        for _ in range(150):
            regex = _random_regex(rng, 3)
            for _ in range(20):
                word = tuple(rng.choice("abc") for _ in range(rng.randrange(6)))
                assert regex.to_dfa().accepts(word) == _nfa_accepts(regex, word), (
                    regex,
                    word,
                )

    def test_matches_uses_the_dfa(self):
        model = concat(sym("cno"), sym("title"), star(sym("prereq")))
        assert model.matches(("cno", "title"))
        assert model.matches(("cno", "title", "prereq", "prereq"))
        assert not model.matches(("title", "cno"))

    def test_to_dfa_is_cached_per_structural_identity(self):
        one = concat(sym("a"), star(sym("b")))
        two = concat(sym("a"), star(sym("b")))  # equal, distinct object
        assert one.to_dfa() is two.to_dfa()

    def test_dfa_is_minimised(self):
        # (a|a) and a must compile to the same-size automaton...
        assert alt(sym("a"), sym("a")).to_dfa().states == sym("a").to_dfa().states
        # ...and a* needs exactly one live state.
        assert star(sym("a")).to_dfa().states == 1

    def test_accepts_sets_walks_candidate_alphabets(self):
        model = concat(sym("a"), alt(sym("b"), sym("c")))
        assert model.to_dfa().accepts_sets([{"a"}, {"b", "c"}])
        assert not model.to_dfa().accepts_sets([{"a"}, {"d"}])

    def test_empty_word_regex(self):
        dfa = empty().to_dfa()
        assert dfa.accepts(())
        assert not dfa.accepts(("a",))


class TestInclusion:
    def test_included_languages_have_no_counterexample(self):
        assert inclusion_counterexample(sym("a"), star(sym("a"))) is None
        assert inclusion_counterexample(empty(), star(sym("a"))) is None
        assert (
            inclusion_counterexample(
                concat(sym("a"), star(sym("b"))),
                concat(opt(sym("a")), star(alt(sym("b"), sym("c")))),
            )
            is None
        )

    def test_counterexample_is_a_shortest_escaping_word(self):
        assert inclusion_counterexample(star(sym("a")), plus(sym("a"))) == ()
        assert inclusion_counterexample(concat(sym("a"), sym("b")), star(sym("a"))) == (
            "a",
            "b",
        )
        word = inclusion_counterexample(star(sym("a")), concat(sym("a"), sym("a")))
        assert word is not None and len(word) <= 1

    def test_escape_through_foreign_symbol(self):
        assert inclusion_counterexample(sym("z"), star(sym("a"))) == ("z",)


# ---------------------------------------------------------------------------
# Wire codec (the DTD travels as pure data).
# ---------------------------------------------------------------------------


class TestWire:
    def test_regex_round_trip(self):
        model = alt(Epsilon(), concat(sym("a"), star(alt(sym("b"), sym("c")))))
        assert regex_from_wire(regex_to_wire(model)) == model

    def test_dtd_round_trip_is_json_plain(self):
        import json

        dtd = tau1_dtd()
        wire = dtd_to_wire(dtd)
        json.dumps(wire)  # nothing but plain data crosses the wire
        back = dtd_from_wire(wire)
        assert back.root == dtd.root
        assert set(back.rules) == set(dtd.rules)
        for tag, model in dtd.rules.items():
            assert back.rules[tag] == model

    def test_malformed_wire_raises(self):
        with pytest.raises(ValueError):
            regex_from_wire({"op": "no-such-op"})
        with pytest.raises(ValueError):
            dtd_from_wire({"rules": {}})  # missing root


# ---------------------------------------------------------------------------
# witness_instance (satellite: the emptiness machinery's public witness).
# ---------------------------------------------------------------------------


class TestWitnessInstance:
    def test_builds_a_firing_source_for_a_composed_path(self):
        transducer = tau1_prerequisite_hierarchy()
        graph = DependencyGraph(transducer)
        path = next(
            iter(
                graph.simple_paths_from_root(
                    target_predicate=lambda node: node == ("q", "prereq"),
                    max_paths=100,
                )
            )
        )
        composed = compose_path(transducer, path)
        witness = witness_instance(transducer, composed)
        assert witness is not None
        assert composed.evaluate(witness)

    def test_prefixes_keep_two_witnesses_disjoint(self):
        transducer = tau1_prerequisite_hierarchy()
        graph = DependencyGraph(transducer)
        path = next(
            iter(
                graph.simple_paths_from_root(
                    target_predicate=lambda node: node == ("q", "course"),
                    max_paths=10,
                )
            )
        )
        composed = compose_path(transducer, path)
        first = witness_instance(transducer, composed, prefix="_x")
        second = witness_instance(transducer, composed, prefix="_y")
        assert first is not None and second is not None
        assert set(first["course"]).isdisjoint(set(second["course"]))


# ---------------------------------------------------------------------------
# The static checker.
# ---------------------------------------------------------------------------


class TestStaticChecker:
    def test_tau1_proved_against_its_dtd(self):
        result = typecheck_transducer(tau1_prerequisite_hierarchy(), tau1_dtd())
        assert result.verdict is Verdict.PROVED
        assert result.proved and not result.refuted
        assert result.checked_pairs >= 4
        assert "proved" in result.describe()

    def test_tau1_refuted_with_replayable_witness(self):
        transducer = tau1_prerequisite_hierarchy()
        result = typecheck_transducer(transducer, tau1_strict_dtd())
        assert result.verdict is Verdict.REFUTED
        assert result.witness is not None and result.violation is not None
        # The witness replays: publishing it produces the recorded violation.
        tree = compile_plan(transducer).publish(result.witness)
        replayed = find_violation(tree, tau1_strict_dtd())
        assert replayed is not None
        assert replayed.location() == result.violation.location()

    def test_tau2_virtual_recursion_proved(self):
        # Virtual recursion through ``l`` falls back to the frontier star;
        # the abstraction still proves the flattened closure shape.
        dtd = DTD(
            "db",
            {
                "db": star(sym("course")),
                "course": concat(sym("cno"), sym("title"), sym("prereq")),
                "prereq": star(sym("cno")),
                "cno": opt(TEXT),
                "title": opt(TEXT),
            },
        )
        result = typecheck_transducer(tau2_prerequisite_closure(), dtd)
        assert result.verdict is Verdict.PROVED

    def test_tau3_exact_dtd_proved(self):
        result = typecheck_transducer(tau3_courses_without_db_prereq(), tau3_exact_dtd())
        assert result.verdict is Verdict.PROVED

    def test_tau3_fo_undecided_with_reasons(self):
        # FO rule queries defeat path composition (Proposition 2), and the
        # empty source conforms -- neither proof nor refutation.
        result = typecheck_transducer(
            tau3_courses_without_db_prereq(), tau3_undecided_dtd()
        )
        assert result.verdict is Verdict.UNDECIDED
        assert result.reasons
        assert result.witness is None and result.violation is None
        assert result.as_dict()["verdict"] == "undecided"

    def test_root_tag_mismatch_refutes_on_the_empty_source(self):
        dtd = DTD("catalog", {"catalog": star(sym("course"))})
        result = typecheck_transducer(tau1_prerequisite_hierarchy(), dtd)
        assert result.verdict is Verdict.REFUTED
        assert result.witness is not None
        assert result.witness.total_size() == 0
        assert "root" in result.violation.reason

    def test_typecheck_plan_matches_transducer_form(self):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        assert typecheck_plan(plan, tau1_dtd()).verdict is Verdict.PROVED
        assert typecheck_plan(plan, tau1_strict_dtd()).verdict is Verdict.REFUTED


# ---------------------------------------------------------------------------
# The streaming validator.
# ---------------------------------------------------------------------------


class TestStreamingValidator:
    def test_accepts_a_conforming_publish(self):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        instance = example_registrar_instance()
        events = plan.publish_events(instance)
        count = StreamingValidator(tau1_dtd()).validate(events)
        assert count == len(list(plan.publish_events(instance)))

    def test_rejects_at_the_earliest_possible_event(self):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        with pytest.raises(OutputValidationError) as info:
            StreamingValidator(tau1_strict_dtd()).validate(
                plan.publish_events(example_registrar_instance())
            )
        violation = info.value.violation
        assert violation.tag == "prereq"
        assert violation.reason.startswith("child 2 of 'course'")
        assert violation.location().startswith("/db/course[")

    def test_validate_events_is_a_pass_through(self):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        instance = example_registrar_instance()
        checked = list(validate_events(plan.publish_events(instance), tau1_dtd()))
        assert checked == list(plan.publish_events(instance))

    def test_validate_events_on_valid_fires_after_the_last_event(self):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        fired = []
        stream = validate_events(
            plan.publish_events(example_registrar_instance()),
            tau1_dtd(),
            on_valid=lambda: fired.append(True),
        )
        next(stream)
        assert not fired
        for _ in stream:
            pass
        assert fired == [True]

    def test_violation_as_dict_is_structured(self):
        tree = compile_plan(tau1_prerequisite_hierarchy()).publish(
            example_registrar_instance()
        )
        violation = find_violation(tree, tau1_strict_dtd())
        data = violation.as_dict()
        assert data["location"] == violation.location()
        assert data["expected"]  # the offending content model rides along
        assert isinstance(data["path"], list) and isinstance(data["tags"], list)

    def test_incomplete_content_detected_at_close(self):
        dtd = DTD("db", {"db": plus(sym("course"))})
        with pytest.raises(OutputValidationError) as info:
            validate_tree(
                compile_plan(tau1_prerequisite_hierarchy()).publish(
                    Instance(REGISTRAR_SCHEMA, {"course": [], "prereq": []})
                ),
                dtd,
            )
        assert "incomplete" in info.value.violation.reason

    def test_deep_spine_is_stack_safe(self):
        # Proposition-1 depths: a linear prerequisite chain publishes one
        # spine far past the recursion limit; the validator must stay
        # O(depth) iterative, never recursive.
        length = max(sys.getrecursionlimit(), 1200) + 200
        plan = compile_plan(tau1_prerequisite_hierarchy())
        instance = chain_instance(length)
        events = plan.publish_events(instance, 20 * length)
        count = StreamingValidator(tau1_dtd()).validate(events)
        assert count > 4 * length  # the whole spine streamed through
        # and the tree form folds through the same iterative path
        tree = plan.publish(instance, 20 * length)
        assert validate_tree(tree, tau1_dtd()) == count

    def test_deep_violation_is_located(self):
        length = max(sys.getrecursionlimit(), 1200) + 200
        plan = compile_plan(tau1_prerequisite_hierarchy())
        tree = plan.publish(chain_instance(length), 20 * length)
        violation = find_violation(tree, tau1_strict_dtd())
        assert violation is not None
        assert violation.location().startswith("/db/course[0]")


# ---------------------------------------------------------------------------
# Serving integration.
# ---------------------------------------------------------------------------


class TestServerIntegration:
    def test_refuted_view_rejected_at_registration(self):
        server = ViewServer()
        with pytest.raises(ViewRejected) as info:
            server.register_view(
                "bad", tau1_prerequisite_hierarchy(), output_dtd=tau1_strict_dtd()
            )
        assert info.value.result.refuted
        assert info.value.result.witness is not None
        # the name is free again: a corrected registration may reuse it
        assert all(view.name != "bad" for view in server.views)
        server.register_view(
            "bad", tau1_prerequisite_hierarchy(), output_dtd=tau1_dtd()
        )

    def test_rejection_witness_replays_through_the_server(self):
        server = ViewServer()
        with pytest.raises(ViewRejected) as info:
            server.register_view(
                "bad", tau1_prerequisite_hierarchy(), output_dtd=tau1_strict_dtd()
            )
        witness = info.value.result.witness
        server.register_view("same", tau1_prerequisite_hierarchy())
        tree = server.publish("same", source=witness)
        assert find_violation(tree, tau1_strict_dtd()) is not None

    def test_proved_view_publishes_with_zero_validation(self):
        server = ViewServer()
        view = server.register_view(
            "t1", tau1_prerequisite_hierarchy(), output_dtd=tau1_dtd()
        )
        assert view.typecheck_result().proved
        server.attach(example_registrar_instance(), name="db")
        server.publish("t1", output="bytes")
        server.publish("t1", output="tree")
        assert view.validated == 0 and view.violations == 0

    def test_undecided_view_validates_and_memoises(self):
        server = ViewServer()
        view = server.register_view(
            "fo",
            fo_courses_view(),
            output_dtd=fo_courses_dtd(),
        )
        assert view.typecheck_result().verdict is Verdict.UNDECIDED
        server.attach(example_registrar_instance(), name="db")
        first = server.publish("fo", output="bytes")
        second = server.publish("fo", output="bytes")
        assert first == second
        assert view.validated == 1  # one pass, then the per-version memo

    def test_runtime_violation_is_a_structured_error(self):
        server = ViewServer()
        view = server.register_view(
            "t3", tau3_courses_without_db_prereq(), output_dtd=tau3_undecided_dtd()
        )
        server.attach(example_registrar_instance(), name="db")
        with pytest.raises(OutputValidationError) as info:
            server.publish("t3", output="bytes")
        assert info.value.view == "t3"
        assert info.value.violation.location().startswith("/db/course[")
        assert view.violations == 1

    def test_typecheck_runtime_skips_the_static_check(self):
        server = ViewServer()
        view = server.register_view(
            "t3",
            tau3_courses_without_db_prereq(),
            output_dtd=tau3_exact_dtd(),
            typecheck="runtime",
        )
        assert view.typecheck_result() is None
        server.attach(example_registrar_instance(), name="db")
        server.publish("t3", output="bytes")
        assert view.validated == 1

    def test_typecheck_off_records_but_never_enforces(self):
        server = ViewServer()
        view = server.register_view(
            "t3",
            tau3_courses_without_db_prereq(),
            output_dtd=tau3_undecided_dtd(),
            typecheck="off",
        )
        server.attach(example_registrar_instance(), name="db")
        server.publish("t3", output="bytes")  # would violate, but mode is off
        assert view.validated == 0 and view.violations == 0

    def test_typecheck_axis_is_validated(self):
        server = ViewServer()
        with pytest.raises(Exception, match="typecheck"):
            server.register_view(
                "x",
                tau1_prerequisite_hierarchy(),
                output_dtd=tau1_dtd(),
                typecheck="sometimes",
            )
        with pytest.raises(Exception, match="output_dtd"):
            server.register_view(
                "x", tau1_prerequisite_hierarchy(), typecheck="runtime"
            )

    def test_events_output_validates_single_pass(self):
        server = ViewServer()
        view = server.register_view(
            "t3",
            tau3_courses_without_db_prereq(),
            output_dtd=tau3_exact_dtd(),
            typecheck="runtime",
        )
        server.attach(example_registrar_instance(), name="db")
        events = list(server.publish("t3", output="events"))
        assert view.validated == 1
        plain = ViewServer()
        plain.register_view("t3", tau3_courses_without_db_prereq())
        plain.attach(example_registrar_instance(), name="db")
        assert events == list(plain.publish("t3", output="events"))

    def test_events_violation_surfaces_while_streaming(self):
        server = ViewServer()
        server.register_view(
            "t3", tau3_courses_without_db_prereq(), output_dtd=tau3_undecided_dtd()
        )
        server.attach(example_registrar_instance(), name="db")
        with pytest.raises(OutputValidationError):
            list(server.publish("t3", output="events"))

    def test_stats_and_explain_surface_the_typecheck(self):
        server = ViewServer()
        server.register_view(
            "t1", tau1_prerequisite_hierarchy(), output_dtd=tau1_dtd()
        )
        server.register_view("plain", tau3_courses_without_db_prereq())
        stats = server.stats()
        by_name = {view.name: view for view in stats.views}
        assert by_name["t1"].typecheck["mode"] == "static"
        assert by_name["t1"].typecheck["verdicts"] == {"": "proved"}
        assert by_name["plain"].typecheck is None
        assert "typecheck [static]" in stats.describe()
        report = server.explain("t1")
        assert report.typecheck["result"]["verdict"] == "proved"
        assert "typecheck [static]: proved" in report.describe()

    def test_validation_memo_survives_across_outputs_but_not_versions(self):
        server = ViewServer()
        view = server.register_view(
            "t3",
            tau3_courses_without_db_prereq(),
            output_dtd=tau3_exact_dtd(),
            typecheck="runtime",
        )
        handle = server.attach(example_registrar_instance(), name="db")
        server.publish("t3", output="bytes")
        server.publish("t3", output="compact")
        server.publish("t3", output="tree")
        assert view.validated == 1
        from repro.relational.delta import Delta

        handle.commit(Delta.insert("course", ("CS999", "New", "CS")))
        server.publish("t3", output="bytes")
        assert view.validated == 2  # the new version validates once

    def test_tree_output_validates_once_per_version(self):
        from repro.relational.delta import Delta

        server = ViewServer()
        view = server.register_view(
            "t3",
            tau3_courses_without_db_prereq(),
            output_dtd=tau3_exact_dtd(),
            typecheck="runtime",
        )
        handle = server.attach(example_registrar_instance(), name="db")
        server.publish("t3", output="tree")
        server.publish("t3", output="tree")
        assert view.validated == 1
        handle.commit(Delta.insert("course", ("CS998", "Newer", "CS")))
        server.publish("t3", output="tree")
        server.publish("t3", output="tree")
        assert view.validated == 2


class TestByteIdentity:
    """Validated output must equal unvalidated output everywhere."""

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    @pytest.mark.parametrize("output", ["tree", "events", "bytes", "compact"])
    @pytest.mark.parametrize("parent", ["warm", "cold"])
    def test_all_combinations(self, backend, output, parent):
        from repro.relational.delta import Delta

        def publish_child(validating: bool):
            server = ViewServer()
            if validating:
                server.register_view(
                    "v",
                    tau3_courses_without_db_prereq(),
                    output_dtd=tau3_exact_dtd(),
                    typecheck="runtime",
                )
            else:
                server.register_view("v", tau3_courses_without_db_prereq())
            handle = server.attach(example_registrar_instance(), name="db")
            kwargs = dict(output=output, backend=backend)
            parent_output = server.publish("v", **kwargs)
            if output == "events":
                list(parent_output)  # drive the lazy stream to warm the parent
            handle.commit(Delta.insert("course", ("CS997", "Child", "CS")))
            if parent == "cold":
                server.view("v").plan_for(None).clear_cache()
            return server.publish("v", **kwargs)

        checked = publish_child(True)
        plain = publish_child(False)
        if output == "events":
            assert list(checked) == list(plain)
        else:
            assert checked == plain
