"""Twin classes, and the checks twins share.

Two AEIs are twins when swapping their names maps the architecture onto
itself (topology.twin_classes).  The reduction driver runs the isolation
check once per twin class and lets an equivalent compatibility outcome
stand for the other checks of its orbit.  The differential below
compares every report with sharing against the report without it,
detection patched to singleton classes: the JSON and text reports must
be byte-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from conftest import check_evidence, fixture_source, load_arch, star_source
from test_random_architectures import _SSYNC_HEAVY, _SYNCS, random_aet
from test_topology import ring_source
from padlver import elaborate, parse, topology, validate
from padlver import model as m
from padlver.equivalence import eval_formula
from padlver.report import VerificationReport
from padlver.topology import twin_classes, verify_deadlock_by_reduction

FIXTURE_NAMES = (
    "client_server_sync", "client_server_async", "cruise_control", "two_islands",
    "deadlock_pair", "mutant_server_silent", "mutant_detector_halt",
    "mutant_panel_no_catch", "sulky_receiver", "cycle_dying_member",
)


def twin_star(rng: random.Random, syncs: list[m.Synchronicity] = _SYNCS) -> m.ArchiDescription:
    """A center S and k = 2-4 identical clients: 1-3 channels, each an
    OR or AND interaction of S attached to a UNI interaction of every
    client, the attachments shuffled half of the time.  Behaviors are
    the soundness harness's; an OR output of S DEP-depends on one of its
    OR inputs, when it has any, 70% of the time, and then reads that
    input right before each occurrence."""
    clients = [f"C_{i}" for i in range(1, rng.randint(2, 4) + 1)]
    center: list[m.InteractionDecl] = []
    client: list[m.InteractionDecl] = []
    attachments = []
    for j in range(rng.randint(1, 3)):
        outgoing = rng.random() < 0.5
        mine, theirs = (f"snd_{j}", f"rcv_{j}") if outgoing else (f"rcv_{j}", f"snd_{j}")
        direction = m.Direction.OUTPUT if outgoing else m.Direction.INPUT
        center.append(m.InteractionDecl(
            mine, direction, rng.choice((m.Multiplicity.OR, m.Multiplicity.AND)), rng.choice(syncs)))
        client.append(m.InteractionDecl(
            theirs, m.Direction.INPUT if outgoing else m.Direction.OUTPUT,
            m.Multiplicity.UNI, rng.choice(syncs)))
        for c in clients:
            attachments.append(m.Attachment("S", mine, c, theirs) if outgoing
                               else m.Attachment(c, theirs, "S", mine))
    or_inputs = [d.name for d in center
                 if d.direction is m.Direction.INPUT and d.multiplicity is m.Multiplicity.OR]
    reads: dict[str, str] = {}  # dependent output -> its input
    for k, decl in enumerate(center):
        if (decl.direction is m.Direction.OUTPUT and decl.multiplicity is m.Multiplicity.OR
                and or_inputs and rng.random() < 0.7):
            reads[decl.name] = rng.choice(or_inputs)
            center[k] = replace(decl, dep_on=reads[decl.name])
    if rng.random() < 0.5:  # OR copies and queues numbered out of client order
        rng.shuffle(attachments)
    server = random_aet(rng, "Center_Type", center)
    server = replace(server, equations=tuple(
        replace(eq, body=read_before(eq.body, reads)) for eq in server.equations))
    aets = (server, random_aet(rng, "Client_Type", client))
    instances = (m.Instance("S", "Center_Type", ()),) + tuple(
        m.Instance(c, "Client_Type", ()) for c in clients)
    return m.ArchiDescription("Twin_Star", (), aets, instances, (), tuple(attachments))


def read_before(body: m.ProcessBody, reads: dict[str, str]) -> m.ProcessBody:
    """body with every action a of reads preceded by reads[a]."""
    if isinstance(body, m.Prefix):
        cont = read_before(body.cont, reads)
        if body.action in reads:
            return m.Prefix(reads[body.action], m.Prefix(body.action, cont))
        return m.Prefix(body.action, cont)
    if isinstance(body, m.Choice):
        return m.Choice(tuple(replace(b, body=read_before(b.body, reads)) for b in body.branches))
    return body


def reduce_report(arch, state_limit: int) -> str:
    """The `check --mode reduce --no-timings` JSON and text reports."""
    report = VerificationReport(
        architecture=arch.name, mode="reduce", notion="weak",
        queue_capacity=arch.capacity, state_limit=state_limit, with_timings=False,
    )
    report.reduction = verify_deadlock_by_reduction(arch, "weak", state_limit)
    return report.to_json() + report.to_text()


@pytest.fixture
def built(monkeypatch):
    """The (members, member) of every check whose systems _check_systems
    built."""
    calls = []
    real = topology._check_systems

    def check_systems(arch, members, member, *args):
        calls.append((members, member))
        return real(arch, members, member, *args)

    monkeypatch.setattr(topology, "_check_systems", check_systems)
    return calls


@pytest.fixture
def differential(monkeypatch, built):
    """compare(validated, capacity, state_limit): asserts that the
    reports with and without sharing are byte-identical and returns
    how many outcomes were shared, counted as the outcomes whose
    evaluation built no system."""
    shared_outcomes = []
    real = topology._evaluate

    def evaluate(*args):
        before = len(built)
        outcome = real(*args)
        if not isinstance(outcome, str) and len(built) == before:
            shared_outcomes.append(outcome)
        return outcome

    def compare(validated, capacity: int, state_limit: int = 1_000_000) -> int:
        shared_outcomes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(topology, "_evaluate", evaluate)
            shared = reduce_report(elaborate(validated, capacity), state_limit)
        with monkeypatch.context() as patch:
            patch.setattr(topology, "twin_classes", lambda arch: {a: a for a in arch.instances})
            unshared = reduce_report(elaborate(validated, capacity), state_limit)
        assert shared == unshared
        return len(shared_outcomes)

    return compare


def twin_count(validated) -> int:
    """AEIs that are not the first of their twin class."""
    return sum(aei != first for aei, first in twin_classes(validated).items())


# -- detection ---------------------------------------------------------------------


def test_the_star_clients_are_one_class():
    classes = twin_classes(validate(parse(star_source(4, False))))
    assert classes == {"S": "S", "C_1": "C_1", "C_2": "C_1", "C_3": "C_1", "C_4": "C_1"}


@pytest.mark.parametrize("source", [
    pytest.param(ring_source(5), id="ring"),
    pytest.param(fixture_source("two_islands"), id="two-islands"),
    pytest.param(fixture_source("cruise_control"), id="cruise-control"),
])
def test_no_twins_without_a_swap_symmetry(source):
    # two_islands is symmetric only under the paired swap of both
    # islands, which is not a swap of two names.
    assert twin_count(validate(parse(source))) == 0


def test_twins_attached_to_each_other_are_missed():
    # Swapping the two ends of deadlock_pair maps it onto itself, but
    # their signatures name each other; missing them only forgoes sharing.
    validated = validate(parse(fixture_source("deadlock_pair")))
    assert twin_count(validated) == 0


def test_detection_is_linear_in_the_star():
    validated = validate(parse(star_source(2000, True)))
    started = time.perf_counter()
    classes = twin_classes(validated)
    assert time.perf_counter() - started < 0.5
    assert set(classes.values()) == {"S", "C_1"}


# -- asymmetric variants -----------------------------------------------------------

PARAM_STAR = """ARCHI_TYPE Param_Star(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Server_Type(void)
      BEHAVIOR
        Server(void; void) =
          receive_request . compute_response . send_response . Server()
      INPUT_INTERACTIONS  OR receive_request
      OUTPUT_INTERACTIONS OR send_response DEP receive_request

    ARCHI_ELEM_TYPE Client_Type(int(0..3) k)
      BEHAVIOR
        Client(void; void) =
          choice { cond(k >= 0) -> process . log . send_request . receive_response . Client() }
      INPUT_INTERACTIONS  UNI receive_response
      OUTPUT_INTERACTIONS UNI send_request; UNI log

    ARCHI_ELEM_TYPE Other_Type(int(0..3) k)
      BEHAVIOR
        Client(void; void) =
          choice { cond(k >= 0) -> process . log . send_request . receive_response . Client() }
      INPUT_INTERACTIONS  UNI receive_response
      OUTPUT_INTERACTIONS UNI send_request; UNI log

  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      S   : Server_Type();
      C_1 : Client_Type(1);
      C_2 : Client_Type(1);
      C_3 : Client_Type(1)
    ARCHI_INTERACTIONS
      void
    ARCHI_ATTACHMENTS
      FROM C_1.send_request TO S.receive_request;
      FROM C_2.send_request TO S.receive_request;
      FROM C_3.send_request TO S.receive_request;
      FROM S.send_response  TO C_1.receive_response;
      FROM S.send_response  TO C_2.receive_response;
      FROM S.send_response  TO C_3.receive_response
END
"""


@pytest.fixture
def compat_calls(monkeypatch):
    """The (center, partner) pairs passed to check_compatibility."""
    calls = []
    real = topology.check_compatibility

    def counted(arch, center, partner, *args, **kwargs):
        calls.append((center, partner))
        return real(arch, center, partner, *args, **kwargs)

    monkeypatch.setattr(topology, "check_compatibility", counted)
    return calls


@pytest.mark.parametrize("variant", [
    pytest.param(("C_3 : Client_Type(1)", "C_3 : Client_Type(2)"), id="actuals"),
    pytest.param(("C_3 : Client_Type(1)", "C_3 : Other_Type(1)"), id="aet"),
    pytest.param(("    ARCHI_INTERACTIONS\n      void", "    ARCHI_INTERACTIONS\n      C_3.log"),
                 id="architectural-interaction"),
])
def test_an_asymmetric_client_runs_its_own_check(variant, compat_calls, differential):
    symmetric = validate(parse(PARAM_STAR))
    assert twin_classes(symmetric) == {"S": "S", "C_1": "C_1", "C_2": "C_1", "C_3": "C_1"}
    validated = validate(parse(PARAM_STAR.replace(*variant)))
    assert twin_classes(validated) == {"S": "S", "C_1": "C_1", "C_2": "C_1", "C_3": "C_3"}
    reduction = verify_deadlock_by_reduction(elaborate(validated, 1))
    assert reduction.status == "deadlock_free"
    assert compat_calls == [("S", "C_1"), ("S", "C_3")]
    assert differential(validated, 1) == 1


def test_failing_twin_checks_each_name_their_own_or_copy(compat_calls):
    arch = load_arch("mutant_server_silent")
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "conditions_failed"
    assert compat_calls == [("S", "C_1"), ("S", "C_2")]
    for record, client in zip(reduction.conditions, ("C_1", "C_2")):
        (outcome,) = record.outcomes
        assert (outcome.partner, outcome.equivalent) == (client, False)
        copy = f"{client}.send_request#S.receive_request_{client[-1]}"
        assert copy in outcome.formula_text
        lhs, rhs, verdict = check_evidence(arch, outcome)
        assert eval_formula(lhs, verdict.formula)
        assert not eval_formula(rhs, verdict.formula)


@pytest.mark.parametrize("synchronous", [False, True], ids=["async", "sync"])
def test_a_star_of_32_checks_once_per_twin_class(synchronous, compat_calls, built, monkeypatch):
    isolated = []
    real = topology.aei_deadlock_free

    def counted(arch, aei, *args, **kwargs):
        isolated.append(aei)
        return real(arch, aei, *args, **kwargs)

    monkeypatch.setattr(topology, "aei_deadlock_free", counted)
    arch = elaborate(validate(parse(star_source(32, synchronous))), 1)
    reduction = verify_deadlock_by_reduction(arch)
    assert reduction.status == "deadlock_free"
    assert compat_calls == [("S", "C_1")]
    assert isolated == ["S", "C_1"]
    assert reduction.aei_deadlock_free == dict.fromkeys(arch.real_aeis, True)
    outcomes = [o for c in reduction.conditions for o in c.outcomes]
    assert [o.partner for o in outcomes] == [f"C_{i}" for i in range(1, 33)]
    assert len({(o.lhs_states, o.rhs_states, o.saturated) for o in outcomes}) == 1
    assert all(o.formula_text is None for o in outcomes)
    assert built == [(("S", "C_1"), "S")]  # the other 31 outcomes built no system


# -- shared against unshared reports -------------------------------------------------


def test_fixture_reports_are_the_same_with_and_without_sharing(differential):
    with_twins = []
    for name in FIXTURE_NAMES:
        validated = validate(parse(fixture_source(name)))
        for capacity in (1, 2, 3):
            differential(validated, capacity)
        if twin_count(validated):
            with_twins.append(name)
    assert with_twins == ["client_server_sync", "client_server_async", "mutant_server_silent"]


def test_family_reports_are_the_same_with_and_without_sharing(differential):
    shared = 0
    for n in range(2, 7):
        for capacity in (1, 2, 3):
            shared += differential(validate(parse(star_source(n, False))), capacity)
        shared += differential(validate(parse(star_source(n, True))), 1)
    for n in range(3, 7):
        assert differential(validate(parse(ring_source(n))), 1) == 0
    # every client after the first shares the first client's check
    assert shared == sum(3 * (n - 1) + (n - 1) for n in range(2, 7))


@pytest.mark.parametrize("syncs, seed, draws", [
    pytest.param(_SYNCS, 1414, 120, id="harness-syncs"),
    pytest.param(_SSYNC_HEAVY, 1415, 60, id="ssync-heavy"),
])
def test_twin_star_reports_are_the_same_with_and_without_sharing(syncs, seed, draws, differential):
    rng = random.Random(seed)
    shared = dependent = 0
    for _ in range(draws):
        description, capacity = twin_star(rng, syncs), rng.randint(1, 2)
        validated = validate(description)
        assert twin_count(validated) == len(description.instances) - 2
        shared += differential(validated, capacity, state_limit=100_000)
        dependent += any(d.dep_on for d in description.aets[0].interactions)
    assert shared >= draws // 3
    assert dependent >= draws // 10
