from __future__ import annotations

import pytest

from conftest import fixture_source, load_arch
from padlver import parse, topology, validate
from padlver.elaborate import elaborate
from padlver.equivalence import eval_formula
from padlver.topology import (
    AbstractFlowGraph,
    build_flow_graph,
    check_behavioral_conformity,
    check_compatibility,
    check_interoperability,
    decompose,
    to_dot,
    verify_deadlock_by_reduction,
    verify_deadlock_direct,
)

SINGLE = """ARCHI_TYPE Solo(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE One_Type(void)
      BEHAVIOR
        One(void; void) = work . beat . One()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI beat
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES W : One_Type()
    ARCHI_INTERACTIONS W.beat
    ARCHI_ATTACHMENTS void
END
"""


# -- flow graph --------------------------------------------------------------------


def test_cruise_flow_graph():
    arch = validate(parse(fixture_source("cruise_control")))
    graph = build_flow_graph(arch)
    assert graph.vertices == ("P", "S", "C", "D", "A")
    assert set(graph.edges) == {("P", "S"), ("S", "C"), ("S", "D"), ("C", "A"), ("D", "A")}


def test_client_server_flow_graph_is_a_star():
    arch = validate(parse(fixture_source("client_server_sync")))
    graph = build_flow_graph(arch)
    deco = decompose(graph)
    assert deco.cyclic_unions == ()
    assert [(s.center, s.border) for s in deco.stars] == [("S", ("C_1", "C_2"))]


def test_single_aei_graph():
    arch = validate(parse(SINGLE))
    graph = build_flow_graph(arch)
    assert graph.vertices == ("W",)
    assert graph.edges == ()
    deco = decompose(graph)
    assert deco.stars == () and deco.cyclic_unions == ()


# -- decomposition -----------------------------------------------------------------


def test_cruise_decomposition():
    arch = validate(parse(fixture_source("cruise_control")))
    deco = decompose(build_flow_graph(arch))
    assert deco.cyclic_unions == (("S", "C", "D", "A"),)
    assert deco.frontiers == (("S",),)
    assert [(s.center, s.border) for s in deco.stars] == [("S", ("P",))]
    assert set(deco.acyclic_aeis) == {"P", "S"}


def test_tree_has_no_cyclic_unions():
    graph = AbstractFlowGraph(("A", "B", "C", "D"),
                              (("A", "B"), ("B", "C"), ("C", "D")))
    deco = decompose(graph)
    assert deco.cyclic_unions == ()
    # every edge is covered by exactly one star
    covered = [
        (s.center, b) for s in deco.stars for b in s.border
    ]
    edges = {frozenset(e) for e in graph.edges}
    assert {frozenset(p) for p in covered} == edges
    assert len(covered) == len(edges)


def test_two_cycles_sharing_a_vertex_form_one_union():
    graph = AbstractFlowGraph(
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "E"), ("E", "C")),
    )
    deco = decompose(graph)
    assert deco.cyclic_unions == (("A", "B", "C", "D", "E"),)
    assert deco.frontiers == ((),)


def test_decomposition_totality_on_mixed_graph():
    # a cycle with two pendant chains
    graph = AbstractFlowGraph(
        ("A", "B", "C", "X", "Y"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("A", "X"), ("X", "Y")),
    )
    deco = decompose(graph)
    assert deco.cyclic_unions == (("A", "B", "C"),)
    assert deco.frontiers == (("A",),)
    union_edges = {frozenset(("A", "B")), frozenset(("B", "C")), frozenset(("C", "A"))}
    star_edges = {
        frozenset((s.center, b)) for s in deco.stars for b in s.border
    }
    assert star_edges == {frozenset(("A", "X")), frozenset(("X", "Y"))}
    assert union_edges | star_edges == {frozenset(e) for e in graph.edges}


def test_frontier_members_have_outside_edges():
    arch = validate(parse(fixture_source("cruise_control")))
    graph = build_flow_graph(arch)
    deco = decompose(graph)
    for union, frontier in zip(deco.cyclic_unions, deco.frontiers):
        inside = set(union)
        for member in union:
            outside = [n for n in graph.neighbors(member) if n not in inside]
            assert (member in frontier) == bool(outside)


# -- checks ------------------------------------------------------------------------


def test_cruise_sensor_compatible_with_panel():
    arch = load_arch("cruise_control")
    outcome = check_compatibility(arch, "S", "P")
    assert outcome.equivalent
    assert outcome.formula_text is None


def test_cruise_sensor_interoperates_with_cycle():
    arch = load_arch("cruise_control")
    outcome = check_interoperability(arch, ("S", "C", "D", "A"), "S")
    assert outcome.equivalent


def test_compatibility_requires_attachment():
    arch = load_arch("cruise_control")
    with pytest.raises(ValueError):
        check_compatibility(arch, "P", "D")


def test_interoperability_requires_cycle_of_three():
    arch = load_arch("cruise_control")
    with pytest.raises(ValueError):
        check_interoperability(arch, ("S", "C"), "S")
    with pytest.raises(ValueError):
        check_interoperability(arch, ("S", "C", "D"), "A")


def test_mutant_server_breaks_compatibility_with_sound_formula():
    arch = load_arch("mutant_server_silent")
    outcome = check_compatibility(arch, "S", "C_1")
    assert not outcome.equivalent
    formula = outcome.verdict.formula
    assert eval_formula(outcome.lhs, formula)
    assert not eval_formula(outcome.rhs, formula)


def test_mutant_detector_breaks_interoperability_with_sound_formula():
    arch = load_arch("mutant_detector_halt")
    outcome = check_interoperability(arch, ("S", "C", "D", "A"), "S")
    assert not outcome.equivalent
    formula = outcome.verdict.formula
    assert eval_formula(outcome.lhs, formula)
    assert not eval_formula(outcome.rhs, formula)


def test_mutant_panel_breaks_compatibility_with_sound_formula():
    arch = load_arch("mutant_panel_no_catch")
    outcome = check_compatibility(arch, "S", "P")
    assert not outcome.equivalent
    formula = outcome.verdict.formula
    assert eval_formula(outcome.lhs, formula)
    assert not eval_formula(outcome.rhs, formula)


# -- drivers -----------------------------------------------------------------------


def test_cruise_reduction_and_direct_agree():
    arch = load_arch("cruise_control")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "deadlock_free"
    assert reduction.all_conditions_hold
    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock_free"


def test_single_aei_conditions_are_vacuous():
    arch = elaborate(validate(parse(SINGLE)), 2)
    # W only has an architectural interaction, which the partially
    # closed semantics hides: under the weak notion its tau-divergence
    # counts as a deadlock, under the strict notion it does not.  In
    # both cases the degenerate topology contributes no conditions and
    # the verdict is exactly the AEI's own.
    weak = verify_deadlock_by_reduction(arch, notion="weak")
    assert weak.conditions == []
    assert weak.status == "deadlock"
    assert weak.status == verify_deadlock_direct(arch, notion="weak").status
    strict = verify_deadlock_by_reduction(arch, notion="strict")
    assert strict.conditions == []
    assert strict.status == "deadlock_free"
    assert strict.witness == "W"
    assert strict.status == verify_deadlock_direct(arch, notion="strict").status


def test_client_server_reduction_matches_direct():
    for name in ("client_server_sync", "client_server_async"):
        arch = load_arch(name)
        reduction = verify_deadlock_by_reduction(arch)
        direct = verify_deadlock_direct(arch)
        assert reduction.all_conditions_hold
        assert reduction.status == direct.status == "deadlock_free"
        pairs = [c.subject for c in reduction.conditions if c.condition == "1"]
        assert pairs == [("S", "C_1"), ("S", "C_2")]


def test_deadlock_pair_direct_zero_length_trace():
    arch = load_arch("deadlock_pair")
    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock"
    assert direct.trace == []
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "conditions_failed"


def test_reverse_compatibility_gates_the_existential_verdict():
    # The receiver can silently slip into ignoring everyone, so the
    # system deadlocks even though the sender is fine on its own.  The
    # center-direction compatibility holds; the verdict transfer from
    # the deadlock-free border needs the reverse direction, which fails.
    arch = load_arch("sulky_receiver")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "conditions_failed"
    by_id = {c.condition: c for c in reduction.conditions}
    assert by_id["1"].holds is True
    assert by_id["1r"].holds is False
    assert reduction.aei_deadlock_free == {"R": False, "W": True}
    assert verify_deadlock_direct(arch).status == "deadlock"


def test_empty_frontier_cycle_needs_a_deadlock_free_anchor():
    # Whole-graph cycle: only the member that can die interoperates, so
    # condition 2a holds but 2c (vacuous frontier premise, deadlock-free
    # members exist) fails, and no verdict is claimed; directly the
    # system deadlocks after that member dies.
    arch = load_arch("cycle_dying_member")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "conditions_failed"
    by_id = {c.condition: c for c in reduction.conditions}
    assert by_id["2a"].holds is True
    assert by_id["2c"].holds is False
    assert verify_deadlock_direct(arch).status == "deadlock"


def _ring_member(aet: str, step: str) -> str:
    return f"""\
    ARCHI_ELEM_TYPE {aet}(void)
      BEHAVIOR
        B0(void; void) = choice {{ think . B1(), {step} . B0() }};
        B1(void; void) = choice {{ think . B0(), {step} . B1() }}
      INPUT_INTERACTIONS  SYNC UNI take
      OUTPUT_INTERACTIONS SYNC UNI pass
"""


def ring_source(n: int) -> str:
    """Members R_1..R_n passing a token around one cycle; R_1 starts with it."""
    members = [f"R_{i}" for i in range(1, n + 1)]
    instances = ";\n".join(
        f"      {m} : {'Head_Type' if k == 0 else 'Member_Type'}()"
        for k, m in enumerate(members)
    )
    attachments = ";\n".join(
        f"      FROM {a}.pass TO {b}.take"
        for a, b in zip(members, members[1:] + members[:1])
    )
    return (
        f"ARCHI_TYPE Ring_{n}(void)\n  ARCHI_BEHAVIOR\n"
        + _ring_member("Head_Type", "pass . take")
        + _ring_member("Member_Type", "take . pass")
        + f"  ARCHI_TOPOLOGY\n    ARCHI_ELEM_INSTANCES\n{instances}\n"
        + "    ARCHI_INTERACTIONS void\n"
        + f"    ARCHI_ATTACHMENTS\n{attachments}\nEND\n"
    )


@pytest.fixture
def interop_calls(monkeypatch):
    """The (union, member) pairs passed to check_interoperability."""
    calls = []
    real = topology.check_interoperability

    def counted(arch, cycle, member, *args, **kwargs):
        calls.append((cycle, member))
        return real(arch, cycle, member, *args, **kwargs)

    monkeypatch.setattr(topology, "check_interoperability", counted)
    return calls


def test_each_interoperability_check_runs_once(interop_calls):
    # Conditions 2a and 2c both range over members of an empty-frontier
    # cycle; a member they share is checked once and listed under both.
    reduction = verify_deadlock_by_reduction(load_arch("cycle_dying_member"))
    assert len(interop_calls) == len(set(interop_calls)) == 3
    by_id = {c.condition: c for c in reduction.conditions}
    shared_2a = {o.partner: o for o in by_id["2a"].outcomes}
    shared_2c = {o.partner: o for o in by_id["2c"].outcomes}
    assert set(shared_2a) & set(shared_2c) == {"N_1"}
    assert shared_2a["N_1"] is shared_2c["N_1"]
    assert shared_2a["N_1"].equivalent is False


def test_ring_checks_its_cycle_once(interop_calls):
    arch = elaborate(validate(parse(ring_source(4))), 1)
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "deadlock_free"
    assert len(interop_calls) == len(set(interop_calls)) == 1
    by_id = {c.condition: c for c in reduction.conditions}
    assert by_id["2a"].outcomes[0] is by_id["2c"].outcomes[0]


def test_a_check_that_hits_the_limit_is_not_retried(interop_calls):
    arch = elaborate(validate(parse(ring_source(4))), 1)
    reduction = verify_deadlock_by_reduction(arch, state_limit=10)
    assert reduction.status == "inconclusive"
    assert len(interop_calls) == len(set(interop_calls)) == 4
    by_id = {c.condition: c for c in reduction.conditions}
    for condition in ("2a", "2c"):
        assert by_id[condition].holds is None
        assert by_id[condition].outcomes == []
        assert "state limit" in by_id[condition].detail
    assert by_id["2a"].detail == by_id["2c"].detail


def test_mutant_direct_confirms_failed_check():
    arch = load_arch("mutant_server_silent")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "conditions_failed"
    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock"
    assert direct.trace is not None


def test_async_capacity_sweep_is_deadlock_free():
    varch = validate(parse(fixture_source("client_server_async")))
    verdicts = []
    for capacity in (1, 2, 3):
        arch = elaborate(varch, capacity)
        verdicts.append(verify_deadlock_direct(arch).status)
    assert verdicts == ["deadlock_free"] * 3


def test_strict_notion_finds_the_same_deadlock_here():
    arch = load_arch("deadlock_pair")
    assert verify_deadlock_direct(arch, notion="strict").status == "deadlock"


def test_reports_are_deterministic():
    from padlver.report import VerificationReport

    def run():
        arch = load_arch("cruise_control")
        report = VerificationReport(
            architecture=arch.name, mode="both", notion="weak",
            queue_capacity=2, state_limit=10**6, with_timings=False,
        )
        report.reduction = verify_deadlock_by_reduction(arch)
        report.direct = verify_deadlock_direct(arch)
        return report.to_json()

    assert run() == run()


def test_star_reduction_target():
    # when the center is compatible with every border AEI, the totally
    # closed star with the center partially closed, after hiding all the
    # shared queue names and exceptions, is weakly bisimilar to the
    # center alone without buffers
    from padlver.elaborate import (
        SemanticsRequest,
        aei_semantics,
        composite_semantics,
        e_set,
        h_set,
    )
    from padlver.equivalence import weak_bisim_check
    from padlver.lts import hide, resolve

    for name, center, border in [
        ("client_server_sync", "S", ("C_1", "C_2")),
        ("client_server_async", "S", ("C_1", "C_2")),
    ]:
        arch = load_arch(name)
        for partner in border:
            assert check_compatibility(arch, center, partner).equivalent
        star = (center,) + border
        lhs = composite_semantics(
            arch,
            SemanticsRequest(subject=star, context=star, closure="tc",
                             buffers_for=star, totally_closed_up_to=(center,)),
        )
        hidden = set()
        for partner in border:
            hidden |= h_set(arch, center, {partner}) | e_set(arch, center, {partner})
        if hidden:
            lhs = hide(lhs, hide_set=hidden)
        rhs = aei_semantics(arch, center, context=arch.real_aeis,
                            closure="pc", buffers_for=())
        assert weak_bisim_check(resolve(lhs), resolve(rhs)).equivalent


# -- behavioral conformity -----------------------------------------------------------


def test_renamed_instance_conforms():
    original = load_arch("client_server_sync")
    renamed_src = fixture_source("client_server_sync").replace("C_1", "C_9")
    renamed = elaborate(validate(parse(renamed_src)), 2)
    rename = {
        "C_9.send_request": "C_1.send_request",
        "C_9.receive_response": "C_1.receive_response",
    }
    result = check_behavioral_conformity(renamed, original, rename)
    assert result.conformant


def test_refined_internal_step_conforms():
    original = load_arch("client_server_sync")
    refined_src = fixture_source("client_server_sync").replace(
        "process . send_request", "plan . crunch . send_request"
    )
    refined = elaborate(validate(parse(refined_src)), 2)
    result = check_behavioral_conformity(refined, original, {})
    assert result.conformant


def test_dropping_the_response_breaks_conformity():
    original = load_arch("client_server_sync")
    broken_src = fixture_source("client_server_sync").replace(
        "process . send_request . receive_response . Client()",
        "process . send_request . Idle();\n        Idle(void; void) = "
        "pause . Idle();\n        Dead(void; void) = receive_response . Dead()",
    )
    broken = elaborate(validate(parse(broken_src)), 2)
    result = check_behavioral_conformity(broken, original, {})
    assert not result.conformant
    assert result.formula_text


# -- DOT --------------------------------------------------------------------------


def test_dot_export_cruise():
    arch = validate(parse(fixture_source("cruise_control")))
    graph = build_flow_graph(arch)
    dot = to_dot(graph, decompose(graph))
    assert "subgraph cluster_0" in dot
    assert '"S" [peripheries=2];' in dot
    assert '"P" -- "S";' in dot


def test_dot_export_single_and_disconnected():
    solo = validate(parse(SINGLE))
    dot = to_dot(build_flow_graph(solo))
    assert '"W";' in dot
    islands = validate(parse(fixture_source("two_islands")))
    graph = build_flow_graph(islands)
    dot = to_dot(graph, decompose(graph))
    assert '"P_1" -- "K_1";' in dot and '"P_2" -- "K_2";' in dot
