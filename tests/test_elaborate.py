from __future__ import annotations

import importlib
import random
import time
from collections import Counter

import pytest

from conftest import (
    FIXTURES,
    attach_no,
    e_set,
    fixture_source,
    load_arch,
    plain_product,
    star_source,
    visible_labels,
)
from test_composition import every_check
from test_random_architectures import _SSYNC_HEAVY, random_architecture
from padlver import PadlError, StateLimitExceeded, parse, validate
from padlver import model as m
from padlver.elaborate import (
    _reduction_plan,
    aei_semantics,
    build_name_sets,
    composite_semantics,
    elaborate,
    families_of,
    h_set,
    or_rewrite,
    queue_lts,
    semisync_names,
)
from padlver.lts import hide, relabel, resolve

# The package re-exports the function elaborate under the module's name.
elaborate_module = importlib.import_module("padlver.elaborate")


def parts_of(arch, aeis, closure, buffers_for=(), context=None):
    """(AEI, semantics) parts, each member with the same closure."""
    return [
        (aei, aei_semantics(arch, aei, context=context, closure=closure, buffers_for=buffers_for))
        for aei in aeis
    ]


# -- or-rewrite -------------------------------------------------------------------


def golden_rewritten_server_body() -> m.ProcessBody:
    def branch(j: int) -> m.Branch:
        return m.Branch(
            None,
            m.Prefix(
                f"receive_request_{j}",
                m.Prefix(
                    "compute_response",
                    m.Prefix(f"send_response_{j}", m.Invoke("Server", ())),
                ),
            ),
        )

    return m.Choice((branch(1), branch(2)))


def test_or_rewrite_server_matches_golden_form():
    arch = load_arch("client_server_sync")
    (server_eq,) = arch.aeis["S"].equations
    assert server_eq.name == "Server"
    assert server_eq.body == golden_rewritten_server_body()


def test_or_rewrite_untouched_below_two_attachments():
    ast = parse(fixture_source("client_server_sync"))
    server = ast.aet("Server_Type")
    rewritten, fresh = or_rewrite(
        server.equations,
        {"receive_request": 1, "send_response": 1},
        {"send_response": "receive_request"},
        ["receive_request", "send_response"],
    )
    assert rewritten == server.equations
    assert fresh == {}


def test_or_rewrite_three_way_without_dep():
    source = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Fan_Type(void)
      BEHAVIOR
        Fan(void; void) = deal . Fan()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC OR deal
    ARCHI_ELEM_TYPE Sink_Type(void)
      BEHAVIOR
        Sink(void; void) = got . Sink()
      INPUT_INTERACTIONS  SYNC UNI got
      OUTPUT_INTERACTIONS void
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      F : Fan_Type(); X : Sink_Type(); Y : Sink_Type(); Z : Sink_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM F.deal TO X.got;
      FROM F.deal TO Y.got;
      FROM F.deal TO Z.got
END
"""
    arch = elaborate(validate(parse(source)), 2)
    (fan,) = arch.aeis["F"].equations
    assert isinstance(fan.body, m.Choice)
    actions = [branch.body.action for branch in fan.body.branches]
    assert actions == ["deal_1", "deal_2", "deal_3"]
    composites = sorted(f.composite for f in arch.families)
    assert composites == ["F.deal_1#X.got", "F.deal_2#Y.got", "F.deal_3#Z.got"]


CROSS_EQ_DEP = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Relay_Type(void)
      BEHAVIOR
        Take(void; void) = req . Give();
        Give(void; void) = res . Take()
      INPUT_INTERACTIONS  SYNC OR req
      OUTPUT_INTERACTIONS SYNC OR res DEP req
    ARCHI_ELEM_TYPE Peer_Type(void)
      BEHAVIOR
        Peer(void; void) = ask . hear . Peer()
      INPUT_INTERACTIONS  SYNC UNI hear
      OUTPUT_INTERACTIONS SYNC UNI ask
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      R : Relay_Type(); P_1 : Peer_Type(); P_2 : Peer_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM P_1.ask TO R.req;
      FROM P_2.ask TO R.req;
      FROM R.res TO P_1.hear;
      FROM R.res TO P_2.hear
END
"""


def test_dep_index_tracked_across_equations():
    arch = elaborate(validate(parse(CROSS_EQ_DEP)), 2)
    relay = arch.aeis["R"]
    # the responding equation is specialized per recorded index
    assert len(relay.equations) == 3
    lts = aei_semantics(arch, "R", closure="open", buffers_for=())

    # along every path, a response index must equal the last request index
    import re

    req = re.compile(r"R\.req_(\d+)")
    res = re.compile(r"R\.res_(\d+)")
    seen: set[tuple[int, int]] = set()
    stack = [(lts.initial, 0)]
    while stack:
        state, last = stack.pop()
        if (state, last) in seen:
            continue
        seen.add((state, last))
        for l, d, _, _ in lts.trans[state]:
            label = lts.labels[l]
            nxt = last
            got_req = req.search(label)
            if got_req:
                nxt = int(got_req.group(1))
            got_res = res.search(label)
            if got_res:
                assert int(got_res.group(1)) == last
            stack.append((d, nxt))


def test_dependent_output_without_recorded_index_is_an_error():
    bad = CROSS_EQ_DEP.replace(
        "Take(void; void) = req . Give();",
        "Take(void; void) = req . Give();",
    ).replace(
        "ARCHI_ELEM_INSTANCES",
        "ARCHI_ELEM_INSTANCES",
    ).replace(
        "BEHAVIOR\n        Take(void; void) = req . Give();",
        "BEHAVIOR\n        Take(void; void) = res . Take();\n        Unused(void; void) = req . Unused();",
    )
    with pytest.raises(PadlError) as err:
        elaborate(validate(parse(bad)), 2)
    assert "E_DEP_UNSET" in err.value.codes()


def test_fresh_copy_count_equals_attach_no():
    arch = load_arch("client_server_sync")
    varch = arch.source
    for name in ("receive_request", "send_response"):
        copies = [i for i in arch.aeis["S"].interactions if i.startswith(name + "_")]
        assert len(copies) == attach_no(varch, ("S", name))


# -- queue insertion ---------------------------------------------------------------


def test_two_output_queues_with_expected_composites():
    arch = load_arch("client_server_async")
    queues = [name for name, e in arch.aeis.items() if e.is_queue]
    assert queues == ["OAQ_1", "OAQ_2"]
    composites = {f.composite for f in arch.families}
    for i in (1, 2):
        assert f"S.send_response_{i}#OAQ_{i}.arrive" in composites
        assert f"OAQ_{i}.depart#C_{i}.receive_response" in composites


def test_no_async_means_no_queues():
    arch = load_arch("client_server_sync")
    assert all(not e.is_queue for e in arch.aeis.values())
    assert arch.bundle("S") == ["S"]


def test_async_conversion_removes_async_everywhere():
    for name in ("client_server_async", "cruise_control"):
        arch = load_arch(name)
        for elab in arch.aeis.values():
            for inter in elab.interactions.values():
                assert inter.synchronicity is not m.Synchronicity.ASYNC


def test_async_and_interaction_gets_one_queue_per_attachment():
    source = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Emitter_Type(void)
      BEHAVIOR
        Emit(void; void) = tick . announce . Emit()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS ASYNC AND announce
    ARCHI_ELEM_TYPE Listener_Type(void)
      BEHAVIOR
        Listen(void; void) = hear . Listen()
      INPUT_INTERACTIONS  SYNC UNI hear
      OUTPUT_INTERACTIONS void
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      E : Emitter_Type(); L_1 : Listener_Type(); L_2 : Listener_Type(); L_3 : Listener_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM E.announce TO L_1.hear;
      FROM E.announce TO L_2.hear;
      FROM E.announce TO L_3.hear
END
"""
    arch = elaborate(validate(parse(source)), 2)
    queues = [name for name, e in arch.aeis.items() if e.is_queue]
    assert queues == ["OAQ_1", "OAQ_2", "OAQ_3"]
    internal = [f for f in arch.families if f.internal_owner == "E"]
    assert len(internal) == 1
    assert internal[0].composite == (
        "E.announce#OAQ_1.arrive#OAQ_2.arrive#OAQ_3.arrive"
    )
    # the whole system still verifies
    full = resolve(plain_product(
        arch, parts_of(arch, arch.real_aeis, "pc", buffers_for=arch.real_aeis)))
    from padlver import find_deadlocks
    assert not find_deadlocks(full)


def test_async_input_converted_to_semisync_with_input_queues():
    source = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Collector_Type(void)
      BEHAVIOR
        Collect(void; void) = gather . use . Collect()
      INPUT_INTERACTIONS  ASYNC AND gather
      OUTPUT_INTERACTIONS void
    ARCHI_ELEM_TYPE Sender_Type(void)
      BEHAVIOR
        Send(void; void) = put . Send()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI put
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      K : Collector_Type(); S_1 : Sender_Type(); S_2 : Sender_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM S_1.put TO K.gather;
      FROM S_2.put TO K.gather
END
"""
    arch = elaborate(validate(parse(source)), 2)
    queues = [name for name, e in arch.aeis.items() if e.is_queue]
    assert queues == ["IAQ_1", "IAQ_2"]
    gather = arch.aeis["K"].interactions["gather"]
    assert gather.synchronicity is m.Synchronicity.SSYNC
    assert gather.converted_from_async
    internal = [f for f in arch.families if f.internal_owner == "K"]
    assert internal[0].composite == "IAQ_1.depart#IAQ_2.depart#K.gather"
    sets = build_name_sets(arch, "K", arch.real_aeis)
    assert "K.gather_exception" in sets.oali


def test_queue_count_formula():
    # queue count = sum over async unis of 1 + sum over async ands of attach_no
    arch = load_arch("client_server_async")
    n_queues = sum(1 for e in arch.aeis.values() if e.is_queue)
    assert n_queues == 2  # two rewritten async uni outputs


def test_elaboration_is_linear_in_the_attachments():
    # Or-rewiring, queue insertion and family grouping look up each
    # endpoint's attachments instead of scanning them all; the star of
    # 2000 asynchronous clients took over a second when they scanned.
    varch = validate(parse(star_source(2000, False)))
    started = time.perf_counter()
    arch = elaborate(varch, 1)
    assert time.perf_counter() - started < 0.6
    assert sum(e.is_queue for e in arch.aeis.values()) == 2000
    assert len(arch.families) == 3 * 2000


def test_capacity_must_be_positive():
    varch = validate(parse(fixture_source("client_server_async")))
    with pytest.raises(ValueError):
        elaborate(varch, 0)


def test_queue_lts_marks_full_states():
    arch = load_arch("client_server_async", capacity=2)
    q = queue_lts(arch, "OAQ_1")
    assert len(q.marked) == 1
    assert q.n_states == 3


# -- name sets ---------------------------------------------------------------------


def test_fresh_name_of_attached_pair():
    arch = load_arch("client_server_sync")
    sets = build_name_sets(arch, "S", arch.real_aeis)
    phi = sets.phi_map()
    assert phi["S.receive_request_1"] == "C_1.send_request#S.receive_request_1"


def test_cruise_exception_set_between_sensor_and_panel():
    arch = load_arch("cruise_control")
    exceptions = e_set(arch, "S", {"P"})
    assert exceptions == {
        f"P.signal_{x}_exception"
        for x in ("engine_on", "engine_off", "accelerator", "brake", "on", "off", "resume")
    }
    assert len(exceptions) == 7


def test_h_set_empty_without_async():
    arch = load_arch("cruise_control")
    assert h_set(arch, "S", {"P", "C", "D", "A"}) == frozenset()


def test_h_set_for_output_queues():
    arch = load_arch("client_server_async")
    assert h_set(arch, "S", {"C_1"}) == {"OAQ_1.depart#C_1.receive_response"}
    assert h_set(arch, "C_1", {"S"}) == frozenset()


# -- semantics variants ---------------------------------------------------------------


def test_pc_wob_visible_labels_sync_variant():
    arch = load_arch("client_server_sync")
    lts = aei_semantics(arch, "S", closure="pc", buffers_for=())
    assert visible_labels(lts) == {
        "C_1.send_request#S.receive_request_1",
        "C_2.send_request#S.receive_request_2",
        "S.send_response_1#C_1.receive_response",
        "S.send_response_2#C_2.receive_response",
    }


def test_wob_equals_all_buffers_without_async():
    arch = load_arch("client_server_sync")
    wob = aei_semantics(arch, "S", closure="pc", buffers_for=())
    with_all = aei_semantics(arch, "S", closure="pc", buffers_for=arch.real_aeis)
    assert wob == with_all


def test_tc_equals_pc_without_oali():
    arch = load_arch("client_server_sync")
    pc = aei_semantics(arch, "C_1", closure="pc", buffers_for=())
    tc = aei_semantics(arch, "C_1", closure="tc", buffers_for=())
    assert pc == tc


def test_tc_hides_the_originally_asynchronous_names():
    arch = load_arch("client_server_async")
    tc = aei_semantics(arch, "S", closure="tc", buffers_for=arch.real_aeis)
    sets = build_name_sets(arch, "S", arch.real_aeis)
    assert visible_labels(tc).isdisjoint(sets.oali)


def test_singleton_composite_is_its_part_resolved():
    arch = load_arch("client_server_async")
    part = aei_semantics(arch, "C_1", closure="pc", buffers_for=arch.real_aeis)
    assert part.has_semisync()
    keep = build_name_sets(arch, "C_1", arch.real_aeis).visible
    assert composite_semantics(arch, ("C_1",), lambda aei: part, keep) == resolve(part)


def test_totally_closed_composite_visibility():
    arch = load_arch("client_server_async")
    lts = plain_product(arch, parts_of(arch, arch.real_aeis, "tc", buffers_for=arch.real_aeis))
    allowed = set()
    for aei in arch.real_aeis:
        allowed |= set(build_name_sets(arch, aei, arch.real_aeis).phi_map().values())
    visible = {l for l in visible_labels(lts) if not l.endswith("_exception")}
    assert visible <= allowed


def test_whole_sync_composite_matches_the_displayed_term():
    # build the composed client-server term by hand with the kernel
    # operators, with the exact relabelings and synchronization sets of
    # the worked example, and compare against the plain product
    from padlver.lts import parallel, relabel
    from padlver.semantics import generate_lts

    arch = load_arch("client_server_sync")
    n = {
        1: "C_1.send_request#S.receive_request_1",
        2: "S.send_response_1#C_1.receive_response",
        3: "C_2.send_request#S.receive_request_2",
        4: "S.send_response_2#C_2.receive_response",
    }
    server = relabel(
        generate_lts(arch.aeis["S"].equations, {}, prefix="S"),
        {
            "S.receive_request_1": n[1],
            "S.send_response_1": n[2],
            "S.receive_request_2": n[3],
            "S.send_response_2": n[4],
        },
    )
    clients = {}
    for i, (req, res) in ((1, (n[1], n[2])), (2, (n[3], n[4]))):
        clients[i] = relabel(
            generate_lts(arch.aeis[f"C_{i}"].equations, {}, prefix=f"C_{i}"),
            {f"C_{i}.send_request": req, f"C_{i}.receive_response": res},
        )
    manual = parallel(parallel(server, clients[1], {n[1], n[2]}),
                      clients[2], {n[3], n[4]})
    composed = plain_product(arch, parts_of(arch, arch.real_aeis, "open"))
    assert manual == composed


CASCADE_HUB = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Hub_Type(void)
      BEHAVIOR
        Hub(void; void) = gather . get . scatter . put . Hub()
      INPUT_INTERACTIONS  ASYNC AND gather; ASYNC UNI get
      OUTPUT_INTERACTIONS ASYNC AND scatter; ASYNC UNI put
    ARCHI_ELEM_TYPE Sender_Type(void)
      BEHAVIOR
        Send(void; void) = give . Send()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI give
    ARCHI_ELEM_TYPE Receiver_Type(void)
      BEHAVIOR
        Receive(void; void) = take . Receive()
      INPUT_INTERACTIONS  SYNC UNI take
      OUTPUT_INTERACTIONS void
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      H : Hub_Type(); S_1 : Sender_Type(); S_2 : Sender_Type(); S_3 : Sender_Type();
      R_1 : Receiver_Type(); R_2 : Receiver_Type(); R_3 : Receiver_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM S_1.give TO H.gather;
      FROM S_2.give TO H.gather;
      FROM S_3.give TO H.get;
      FROM H.scatter TO R_1.take;
      FROM H.scatter TO R_2.take;
      FROM H.put TO R_3.take
END
"""


def test_buffers_cascade_uni_before_and_whatever_the_declaration_order():
    # H declares its and-interactions first, so its queues are created
    # IAQ_1, IAQ_2 (gather), IAQ_3 (get), OAQ_1, OAQ_2 (scatter), OAQ_3
    # (put); build the cascade by hand in the documented order (input
    # queues of uni-interactions, then of and-interactions, then the
    # output queues in the same order) and compare against aei_semantics
    from padlver.lts import parallel, relabel
    from padlver.semantics import generate_lts

    arch = elaborate(validate(parse(CASCADE_HUB)), 1)
    family = {
        "gather": "IAQ_1.depart#IAQ_2.depart#H.gather",
        "get": "IAQ_3.depart#H.get",
        "scatter": "H.scatter#OAQ_1.arrive#OAQ_2.arrive",
        "put": "H.put#OAQ_3.arrive",
    }
    hub = relabel(
        generate_lts(arch.aeis["H"].equations, {}, prefix="H",
                     ssync_actions={"gather", "get"}),
        {f"H.{name}": composite for name, composite in family.items()},
    )
    # queue -> (its end on H's side, H's interaction)
    inner = {
        "IAQ_1": ("depart", "gather"), "IAQ_2": ("depart", "gather"), "IAQ_3": ("depart", "get"),
        "OAQ_1": ("arrive", "scatter"), "OAQ_2": ("arrive", "scatter"), "OAQ_3": ("arrive", "put"),
    }
    phi = {
        "IAQ_1.arrive": "S_1.give#IAQ_1.arrive",
        "IAQ_2.arrive": "S_2.give#IAQ_2.arrive",
        "IAQ_3.arrive": "S_3.give#IAQ_3.arrive",
        "OAQ_1.depart": "OAQ_1.depart#R_1.take",
        "OAQ_2.depart": "OAQ_2.depart#R_2.take",
        "OAQ_3.depart": "OAQ_3.depart#R_3.take",
    }

    def cascade(order):
        acc = hub
        for queue in order:
            end, name = inner[queue]
            q = relabel(queue_lts(arch, queue), {f"{queue}.{end}": family[name]})
            if queue.startswith("IAQ"):
                acc = parallel(q, acc, {family[name]})
            else:
                acc = parallel(acc, q, {family[name]})
        return relabel(acc, phi)

    documented = cascade(("IAQ_3", "IAQ_1", "IAQ_2", "OAQ_3", "OAQ_1", "OAQ_2"))
    built = aei_semantics(arch, "H", closure="open", buffers_for=arch.real_aeis)
    assert built == documented
    # the creation order builds a different system, so the order is pinned
    assert cascade(("IAQ_1", "IAQ_2", "IAQ_3", "OAQ_1", "OAQ_2", "OAQ_3")) != documented


def test_semantics_request_validation():
    arch = load_arch("client_server_sync")
    with pytest.raises(ValueError):
        aei_semantics(arch, "S", context=("S",), closure="weird")


def test_composite_takes_each_part_after_composing_the_ones_before(monkeypatch):
    arch = load_arch("cruise_control")
    members = arch.real_aeis
    built = dict(parts_of(arch, members, "pc", buffers_for=members))
    calls = []
    real_parallel = elaborate_module.parallel

    def counting_parallel(*args, **kwargs):
        calls.append(args[2])
        return real_parallel(*args, **kwargs)

    monkeypatch.setattr(elaborate_module, "parallel", counting_parallel)
    seen = []

    def part(aei):
        seen.append((aei, len(calls)))
        return built[aei]

    composed = composite_semantics(arch, members, part, frozenset())
    n = len(members)
    assert n >= 3
    assert seen == list(zip(members, [0] + list(range(n - 1))))
    assert len(calls) == n - 1
    # the last part synchronizes with every part before it: on each
    # family with an end owned by it and one owned by an earlier part
    last = members[-1]
    expected = {f.composite for f in arch.families for aei in members[:-1]
                if aei in f.owners and last in f.owners}
    assert expected and calls[-1] == expected
    assert not composed.has_semisync() and composed.labels == ("tau",)
    assert calls == [sync for sync, _, _ in _reduction_plan(arch, members)]
    # Every fixture check's plan: one step per later member, each
    # synchronizing on the member's families shared with the members
    # before it, and the last with no future.
    planned = 0
    for path in sorted(FIXTURES.glob("*.padl")):
        for capacity in (1, 2, 3):
            arch = load_arch(path.stem, capacity)
            for kind in ("compatibility", "interoperability"):
                for members, _ in every_check(arch, kind):
                    plan = _reduction_plan(arch, members)
                    assert len(plan) == len(members) - 1
                    for k, (sync, _, _) in enumerate(plan, 1):
                        earlier = frozenset().union(*(families_of(arch, aei) for aei in members[:k]))
                        assert sync == families_of(arch, members[k]) & earlier
                    assert plan[-1][1] == frozenset()
                    planned += 1
    assert planned > 0


def test_declared_semisync_names_cover_every_built_part():
    # The reduction bars a quotient on the names semisync_names declares,
    # before the part is built; the built parts must not move on others.
    archs = [load_arch(p.stem, 1) for p in sorted(FIXTURES.glob("*.padl"))]
    rng = random.Random(5150)
    for _ in range(40):
        archs.append(elaborate(validate(random_architecture(rng, _SSYNC_HEAVY)), 1))
    found = 0
    for arch in archs:
        for aei in arch.real_aeis:
            declared = semisync_names(arch, aei)
            for closure in ("pc", "tc"):
                for buffers in ((), arch.real_aeis):
                    part = aei_semantics(arch, aei, closure=closure, buffers_for=buffers)
                    moves = {part.labels[l] for ts in part.trans for l, _, _, ed in ts if ed >= 0}
                    assert moves <= declared, (arch.name, aei, closure, buffers)
                    found += len(moves)
    assert found > 0


def test_composite_of_no_parts_is_an_error():
    arch = load_arch("client_server_sync")
    with pytest.raises(ValueError, match="no members"):
        composite_semantics(arch, (), lambda aei: aei_semantics(arch, aei), frozenset())


def test_capacity_sublts_for_queues():
    arch1 = load_arch("client_server_async", capacity=1)
    arch3 = load_arch("client_server_async", capacity=3)
    q1 = queue_lts(arch1, "OAQ_1")
    q3 = queue_lts(arch3, "OAQ_1")
    assert q1.n_states < q3.n_states
    v1 = {(s, l, d) for s, l, d, _, _ in q1.transition_view() if d < q1.n_states}
    v3 = {(s, l, d) for s, l, d, _, _ in q3.transition_view()}
    assert {t for t in v1 if not (t[1].endswith("arrive") and t[0] == q1.n_states - 1)} <= v3


def test_one_pass_closing_equals_relabel_then_hide():
    # aei_semantics renames to composite names and closes in one pass;
    # the reference relabels and then hides.  Opened relative to the
    # AEI alone, phi is empty, which leaves the system before renaming.
    semisync = 0
    for path in sorted(FIXTURES.glob("*.padl")):
        arch = load_arch(path.stem)
        for aei in arch.real_aeis:
            sets = build_name_sets(arch, aei, arch.real_aeis)
            for buffers in ((), arch.real_aeis):
                acc = aei_semantics(arch, aei, context=(aei,), closure="open",
                                    buffers_for=buffers)
                renamed = relabel(acc, sets.phi_map())
                semisync += acc.has_semisync()
                for closure, keep in (("pc", sets.visible), ("tc", sets.visible - sets.oali)):
                    closed = aei_semantics(arch, aei, closure=closure, buffers_for=buffers)
                    expected = hide(renamed, keep)
                    assert (closed.labels, closed.trans, closed.initial, closed.marked) == (
                        expected.labels, expected.trans, expected.initial, expected.marked
                    ), (path.stem, aei, closure, buffers)
    assert semisync > 0


# -- the per-architecture memo ------------------------------------------------------


@pytest.fixture
def generated(monkeypatch) -> Counter:
    """generate_lts calls by prefix (the AEI or queue generated)."""
    calls: Counter = Counter()
    original = elaborate_module.generate_lts

    def counting(*args, **kwargs):
        calls[kwargs["prefix"]] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(elaborate_module, "generate_lts", counting)
    return calls


def test_a_repeated_request_is_built_once(generated):
    arch = load_arch("client_server_async")
    first = aei_semantics(arch, "S", closure="pc", buffers_for=("C_1",))
    again = aei_semantics(arch, "S", closure="pc", buffers_for=("C_1",))
    assert again is first
    assert generated["S"] == 1
    assert generated["OAQ_1"] == 1


def test_a_different_limit_closure_or_buffer_set_builds_anew(generated):
    arch = load_arch("client_server_async")
    base = aei_semantics(arch, "S", closure="pc", buffers_for=(), state_limit=1000)
    assert aei_semantics(arch, "S", closure="pc", buffers_for=(), state_limit=1000) is base
    assert generated["S"] == 1
    variants = [
        aei_semantics(arch, "S", closure="pc", buffers_for=(), state_limit=999),
        aei_semantics(arch, "S", closure="tc", buffers_for=(), state_limit=1000),
        aei_semantics(arch, "S", closure="pc", buffers_for=("C_1",), state_limit=1000),
    ]
    # the behavior is generated once per state limit and kept
    assert generated["S"] == 2
    assert all(v is not base for v in variants)
    # the new limit builds the same system; tc and the buffer do not
    assert variants[0] == base
    assert variants[1] != base and variants[2] != base


def test_a_build_over_its_limit_raises_every_time(generated):
    arch = load_arch("client_server_async")
    for _ in range(2):
        with pytest.raises(StateLimitExceeded):
            aei_semantics(arch, "S", closure="pc", buffers_for=(), state_limit=1)
    assert generated["S"] == 2
    built = aei_semantics(arch, "S", closure="pc", buffers_for=())
    assert aei_semantics(arch, "S", closure="pc", buffers_for=()) is built
    assert generated["S"] == 3
