from __future__ import annotations

import gc
import importlib
import random
import types
from collections import Counter

import pytest

from conftest import (
    FIXTURES,
    all_conditions_hold,
    check_evidence,
    e_set,
    fixture_source,
    load_arch,
    naive_cyclic_unions,
    plain_product,
)
from test_random_architectures import _SSYNC_HEAVY, _SYNCS, random_architecture
from padlver import parse, topology, validate
from padlver.diagnostics import StateLimitExceeded
from padlver.elaborate import aei_semantics, elaborate
from padlver.equivalence import eval_formula, strong_bisim_check
from padlver.lts import DEFAULT_STATE_LIMIT, Lts, find_deadlocks, resolve, shortest_trace
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
            outside = [n for e in graph.edges if member in e for n in e if n not in inside]
            assert (member in frontier) == bool(outside)


def random_graph(rng: random.Random, max_vertices: int = 12) -> AbstractFlowGraph:
    vertices = [f"V{k}" for k in range(rng.randint(1, max_vertices))]
    rng.shuffle(vertices)
    p = rng.random() * 0.6
    edges = tuple((a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]
                  if rng.random() < p)
    return AbstractFlowGraph(tuple(vertices), edges)


def test_decomposition_matches_the_naive_oracle():
    rng = random.Random(20181)
    for _ in range(3000):
        graph = random_graph(rng)
        deco = decompose(graph)
        unions, frontiers = naive_cyclic_unions(graph.vertices, graph.edges)
        assert (deco.cyclic_unions, deco.frontiers) == (unions, frontiers)
        in_union = {v for union in unions for v in union}
        assert deco.acyclic_aeis == tuple(
            v for v in graph.vertices if v not in in_union or any(v in f for f in frontiers))
        # the stars cover every edge outside the unions exactly once
        covered = Counter(frozenset((s.center, b)) for s in deco.stars for b in s.border)
        outside = {frozenset(e) for e in graph.edges
                   if not any(set(e) <= set(union) for union in unions)}
        assert set(covered) == outside and set(covered.values()) <= {1}


def test_long_ring_and_path_decompose_without_recursion():
    # 1500 AEIs go past Python's default recursion limit of 1000.
    vertices = tuple(f"A{k}" for k in range(1500))
    path = tuple(zip(vertices, vertices[1:]))
    ring = decompose(AbstractFlowGraph(vertices, path + ((vertices[0], vertices[-1]),)))
    assert ring.cyclic_unions == (vertices,) and ring.frontiers == ((),)
    assert ring.stars == ()
    line = decompose(AbstractFlowGraph(vertices, path))
    assert line.cyclic_unions == ()
    assert sum(len(s.border) for s in line.stars) == len(path)


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
    lhs, rhs, verdict = check_evidence(arch, outcome)
    assert eval_formula(lhs, verdict.formula)
    assert not eval_formula(rhs, verdict.formula)


def test_mutant_detector_breaks_interoperability_with_sound_formula():
    arch = load_arch("mutant_detector_halt")
    outcome = check_interoperability(arch, ("S", "C", "D", "A"), "S")
    assert not outcome.equivalent
    lhs, rhs, verdict = check_evidence(arch, outcome)
    assert eval_formula(lhs, verdict.formula)
    assert not eval_formula(rhs, verdict.formula)


def test_mutant_panel_breaks_compatibility_with_sound_formula():
    arch = load_arch("mutant_panel_no_catch")
    outcome = check_compatibility(arch, "S", "P")
    assert not outcome.equivalent
    lhs, rhs, verdict = check_evidence(arch, outcome)
    assert eval_formula(lhs, verdict.formula)
    assert not eval_formula(rhs, verdict.formula)


# -- drivers -----------------------------------------------------------------------


def test_cruise_reduction_and_direct_agree():
    arch = load_arch("cruise_control")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "deadlock_free"
    assert all_conditions_hold(reduction)
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
        assert all_conditions_hold(reduction)
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


def ring_product_sizes(monkeypatch, n: int) -> list[int]:
    """The states of every product the reduction of a ring of n builds,
    after checking that it reduces to deadlock-free."""
    sizes = []
    elaborate_module = importlib.import_module("padlver.elaborate")
    real = elaborate_module.parallel

    def counted(*args, **kwargs):
        product = real(*args, **kwargs)
        sizes.append(product.n_states)
        return product

    monkeypatch.setattr(elaborate_module, "parallel", counted)
    arch = elaborate(validate(parse(ring_source(n))), 1)
    assert verify_deadlock_by_reduction(arch).status == "deadlock_free"
    return sizes


def test_ring_of_12_composes_in_products_linear_in_its_size(monkeypatch):
    # The plain product of the cycle doubles with every member (2^12
    # states here); composed while minimized, no product exceeds 10 N.
    n = 12
    sizes = ring_product_sizes(monkeypatch, n)
    assert sizes and max(sizes) <= 10 * n


def test_ring_of_64_composes_in_products_linear_in_its_size(monkeypatch):
    # The same bound at the size where each quotient's refinement, not
    # the products, used to dominate (2^64 states unminimized).
    n = 64
    sizes = ring_product_sizes(monkeypatch, n)
    assert sizes and max(sizes) <= 10 * n


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


def test_reduction_generates_each_aei_request_once(monkeypatch):
    # Every request for an AEI (the isolation check, each check's parts
    # and right-hand side, the direct route's bundle) starts from the
    # same generated behavior and queues: each AEI and each queue is
    # generated exactly once per architecture.  client_server_async has
    # queues.
    elaborate_module = importlib.import_module("padlver.elaborate")
    generate = elaborate_module.generate_lts
    generated: Counter = Counter()

    def generate_lts(*args, **kwargs):
        generated[kwargs["prefix"]] += 1
        return generate(*args, **kwargs)

    monkeypatch.setattr(elaborate_module, "generate_lts", generate_lts)
    arch = load_arch("cycle_dying_member")
    assert verify_deadlock_by_reduction(arch).status == "conditions_failed"
    assert generated == Counter(dict.fromkeys(arch.aeis, 1))
    generated.clear()
    arch = load_arch("client_server_async")
    assert verify_deadlock_by_reduction(arch).status == "deadlock_free"
    assert generated and set(generated.values()) == {1}
    assert verify_deadlock_direct(arch).status == "deadlock_free"
    assert generated == Counter(dict.fromkeys(arch.aeis, 1))
    assert any(aei.is_queue for aei in arch.aeis.values())


def test_each_cached_semantics_is_resolved_once(monkeypatch):
    # The AEI-alone system every check compares against is resolved
    # once per architecture, not once per check.
    arch = load_arch("cycle_dying_member")
    elaborate_module = importlib.import_module("padlver.elaborate")
    resolved: Counter = Counter()
    real = elaborate_module.resolve

    def counted(lts):
        if any(lts is entry for entry in arch._semantics.values()):
            resolved[id(lts)] += 1
        return real(lts)

    monkeypatch.setattr(elaborate_module, "resolve", counted)
    verify_deadlock_by_reduction(arch)
    assert resolved and max(resolved.values()) == 1


def test_each_check_and_direct_run_composes_once(monkeypatch):
    # Compatibility and interoperability build their left-hand side
    # through the one composition routine, once per check; the direct
    # route explores raw products and never calls it.
    calls: Counter = Counter()

    def counted(name):
        real = getattr(topology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(topology, name, wrapper)

    for name in ("check_compatibility", "check_interoperability", "composite_semantics"):
        counted(name)
    arch = load_arch("cruise_control")
    assert verify_deadlock_by_reduction(arch).status == "deadlock_free"
    assert calls["check_compatibility"] > 0 and calls["check_interoperability"] > 0
    assert calls["composite_semantics"] == (
        calls["check_compatibility"] + calls["check_interoperability"]
    )
    calls.clear()
    assert verify_deadlock_direct(arch).status == "deadlock_free"
    assert not calls


def test_the_direct_route_builds_no_system_before_its_search(monkeypatch):
    # Every step of the direct route is one raw _product: once the AEIs'
    # semantics are built (and memoized), a run calls no parallel,
    # _canonical or composite_semantics.
    arch = load_arch("cruise_control")
    first = verify_deadlock_direct(arch, "strict")
    calls: Counter = Counter()
    lts_module = importlib.import_module("padlver.lts")
    elaborate_module = importlib.import_module("padlver.elaborate")
    for module, name in ((lts_module, "parallel"), (lts_module, "_canonical"),
                         (elaborate_module, "parallel"), (topology, "parallel"),
                         (topology, "_canonical"), (topology, "composite_semantics")):
        real = getattr(module, name)

        def wrapper(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    again = verify_deadlock_direct(arch, "strict")
    assert not calls
    assert (again.status, again.trace, again.states, again.saturated) == (
        first.status, first.trace, first.states, first.saturated)
    topology._whole_system(arch, DEFAULT_STATE_LIMIT)
    assert calls["_canonical"] > 0  # the counters see the built system


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_a_result_holds_no_system(capacity):
    # A result keeps verdicts, formulas and sizes: walking its
    # references, modules and types aside, reaches no Lts.
    for path in sorted(FIXTURES.glob("*.padl")):
        arch = elaborate(validate(parse(path.read_text(encoding="utf-8"))), capacity)
        todo = [verify_deadlock_by_reduction(arch, "weak", 10),
                verify_deadlock_direct(arch, "weak", 10)]
        seen = {id(obj) for obj in todo}
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, Lts), (path.name, capacity)
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(ref, (types.ModuleType, type)):
                    seen.add(id(ref))
                    todo.append(ref)


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


# The direct oracle searches the whole product's raw rows; it must give
# exactly what the search gives on the whole system built, sorted and
# resolved (_whole_system), at every limit and under both notions.


def built_oracle(arch, notion, state_limit):
    """verify_deadlock_direct's fields, from find_deadlocks and
    shortest_trace on _whole_system."""
    try:
        full = topology._whole_system(arch, state_limit)
    except StateLimitExceeded as exc:
        return "inconclusive", None, exc.states_seen, False, str(exc)
    dead = find_deadlocks(full, notion)
    trace = shortest_trace(full, dead) if dead else None
    return "deadlock" if dead else "deadlock_free", trace, full.n_states, bool(full.marked), None


def direct_fields(arch, notion, state_limit):
    result = verify_deadlock_direct(arch, notion, state_limit)
    return result.status, result.trace, result.states, result.saturated, result.detail


def test_direct_oracle_matches_the_built_whole_system_on_fixtures():
    statuses = Counter()
    traced = saturated = 0
    for name in sorted(p.stem for p in FIXTURES.glob("*.padl")):
        varch = validate(parse(fixture_source(name)))
        for capacity in (1, 2, 3):
            arch, reference = elaborate(varch, capacity), elaborate(varch, capacity)
            for notion in ("weak", "strict"):
                for limit in (8, 60, 1000, DEFAULT_STATE_LIMIT):
                    fields = direct_fields(arch, notion, limit)
                    assert fields == built_oracle(reference, notion, limit), (
                        name, capacity, notion, limit)
                    statuses[fields[0]] += 1
                    traced += bool(fields[1])
                    saturated += fields[3]
    assert set(statuses) == {"deadlock", "deadlock_free", "inconclusive"}
    assert traced and saturated


def test_direct_oracle_matches_the_built_whole_system_on_a_lone_aei():
    arch = elaborate(validate(parse(SINGLE)), 1)
    for notion in ("weak", "strict"):
        assert direct_fields(arch, notion, 100) == built_oracle(arch, notion, 100)


def test_direct_oracle_matches_the_built_whole_system_on_harness_draws():
    rng = random.Random(2201)
    statuses = Counter()
    for i in range(200):
        description = random_architecture(rng, _SYNCS if i % 2 else _SSYNC_HEAVY)
        capacity = rng.randint(1, 2)
        for notion in ("weak", "strict"):
            fields = direct_fields(elaborate(validate(description), capacity), notion, 100_000)
            reference = built_oracle(elaborate(validate(description), capacity), notion, 100_000)
            assert fields == reference, description
            statuses[fields[0]] += 1
    assert statuses["deadlock"] >= 20 and statuses["deadlock_free"] >= 20


# The direct route chains raw products and sorts no step; the fold of
# parallel that it replaced must build the same whole system up to the
# numbering of its states, and give the same verdicts.


def whole_fold(arch, state_limit):
    """The whole system as a left fold of parallel, resolved."""
    everyone = arch.real_aeis
    return resolve(plain_product(arch, (
        (aei, aei_semantics(arch, aei, context=everyone, closure="pc", buffers_for=everyone,
                            state_limit=state_limit))
        for aei in everyone
    ), state_limit))


def assert_whole_system_is_the_fold(arch, state_limit) -> str:
    """Compare _whole_system and verify_deadlock_direct with the fold;
    returns the weak direct status."""
    try:
        fold = whole_fold(arch, state_limit)
    except StateLimitExceeded:
        with pytest.raises(StateLimitExceeded):
            topology._whole_system(arch, state_limit)
        assert verify_deadlock_direct(arch, "weak", state_limit).status == "inconclusive"
        return "inconclusive"
    whole = topology._whole_system(arch, state_limit)
    assert whole.labels == fold.labels
    assert (whole.n_states, len(whole.marked)) == (fold.n_states, len(fold.marked))
    assert sum(map(len, whole.trans)) == sum(map(len, fold.trans))
    assert strong_bisim_check(whole, fold).equivalent
    for notion in ("strict", "weak"):
        direct = verify_deadlock_direct(arch, notion, state_limit)
        dead = find_deadlocks(fold, notion)
        assert direct.status == ("deadlock" if dead else "deadlock_free")
        assert (direct.states, direct.saturated) == (fold.n_states, bool(fold.marked))
        if dead:
            assert len(direct.trace) == len(shortest_trace(fold, dead))
    return direct.status


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_whole_system_is_the_fold_of_parallel_on_fixtures(capacity):
    statuses = Counter(assert_whole_system_is_the_fold(load_arch(p.stem, capacity),
                                                       DEFAULT_STATE_LIMIT)
                       for p in sorted(FIXTURES.glob("*.padl")))
    assert statuses["deadlock"] and statuses["deadlock_free"]


def test_whole_system_is_the_fold_of_parallel_on_harness_draws():
    rng = random.Random(4242)
    statuses = Counter()
    for i in range(200):
        description = random_architecture(rng, _SYNCS if i % 2 else _SSYNC_HEAVY)
        arch = elaborate(validate(description), rng.randint(1, 2))
        statuses[assert_whole_system_is_the_fold(arch, 100_000)] += 1
    assert statuses["deadlock"] >= 20 and statuses["deadlock_free"] >= 20


# A server whose OR-interaction receive_request has two attachments,
# beside a UNI-interaction that its first copy's name would take.  Each
# one-shot client's request must stay its own interaction, so the
# looping client cannot stand in for either, and the server deadlocks
# once both one-shot clients are done.
OR_COLLISION = """ARCHI_TYPE Collide(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Server_Type(void)
      BEHAVIOR
        Server(void; void) = receive_request . receive_request_1 . Server()
      INPUT_INTERACTIONS  SYNC OR receive_request; SYNC UNI receive_request_1
      OUTPUT_INTERACTIONS void
    ARCHI_ELEM_TYPE Once_Type(void)
      BEHAVIOR
        Once(void; void) = send_request . stop
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI send_request
    ARCHI_ELEM_TYPE Loop_Type(void)
      BEHAVIOR
        Loop(void; void) = send_request . Loop()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI send_request
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      S : Server_Type(); C_1 : Once_Type(); C_2 : Once_Type(); C_3 : Loop_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM C_1.send_request TO S.receive_request;
      FROM C_2.send_request TO S.receive_request;
      FROM C_3.send_request TO S.receive_request_1
END
"""


def test_or_copies_never_take_a_declared_name():
    colliding = elaborate(validate(parse(OR_COLLISION)), 1)
    renamed = elaborate(validate(parse(OR_COLLISION.replace("receive_request_1", "other_in"))), 1)
    server = colliding.aeis["S"].interactions
    assert sorted(server) == ["receive_request_1", "receive_request_1_", "receive_request_2"]
    assert len({f.composite for f in colliding.families}) == 3
    # Spelled either way, the architecture deadlocks, on the same trace
    # up to the names of the server's interactions.
    rename = {"S.receive_request_1_": "S.receive_request_1", "S.receive_request_1": "S.other_in"}
    results = []
    for arch in (colliding, renamed):
        reduction = verify_deadlock_by_reduction(arch)
        direct = verify_deadlock_direct(arch)
        results.append((reduction.status, direct.status, direct.states, [
            "#".join(rename.get(end, end) for end in label.split("#")) if arch is colliding
            else label for label in direct.trace]))
    assert results[0] == results[1]
    assert results[0][:2] == ("conditions_failed", "deadlock")


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
    from padlver.elaborate import h_set
    from padlver.equivalence import weak_bisim_check
    from padlver.lts import hide

    for name, center, border in [
        ("client_server_sync", "S", ("C_1", "C_2")),
        ("client_server_async", "S", ("C_1", "C_2")),
    ]:
        arch = load_arch(name)
        for partner in border:
            assert check_compatibility(arch, center, partner).equivalent
        star = (center,) + border
        lhs = plain_product(arch, [
            (aei, aei_semantics(arch, aei, context=star, closure="pc" if aei == center else "tc",
                                buffers_for=star))
            for aei in star
        ])
        hidden = set()
        for partner in border:
            hidden |= h_set(arch, center, {partner}) | e_set(arch, center, {partner})
        if hidden:
            lhs = hide(lhs, keep_only=set(lhs.labels) - hidden)
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
