"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
Every tolerance (runtimes, state bounds, iteration counts) is pinned
here, not configured elsewhere.
"""

from __future__ import annotations

import random
import time

from conftest import (
    all_conditions_hold,
    check_evidence,
    fixture_source,
    load_arch,
    minimize,
    naive_weak_bisim,
    prefix_lts,
    random_lts,
    reachable_part,
    tau_pad,
)
from padlver import (
    hide,
    parallel,
    parse,
    pretty_print,
    read_aut,
    relabel,
    saturate,
    strong_bisim_check,
    validate,
    weak_bisim_check,
    write_aut,
)
from padlver import model as m
from padlver.elaborate import elaborate
from padlver.equivalence import eval_formula
from padlver.topology import (
    check_compatibility,
    check_interoperability,
    verify_deadlock_by_reduction,
    verify_deadlock_direct,
)

CORE_FIXTURES = ("client_server_sync", "client_server_async", "cruise_control")
ALL_FIXTURES = CORE_FIXTURES + (
    "two_islands",
    "deadlock_pair",
    "mutant_server_silent",
    "mutant_detector_halt",
    "mutant_panel_no_catch",
    "sulky_receiver",
    "cycle_dying_member",
)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_fixture_parsing_and_round_trip():
    for name in CORE_FIXTURES:
        started = time.perf_counter()
        source = fixture_source(name)
        ast = parse(source)
        arch = validate(ast)
        assert arch.warnings == [], f"{name} must validate with zero diagnostics"
        assert parse(pretty_print(ast)) == ast
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    report(1, "the three core descriptions parse, validate cleanly, and round-trip in < 1 s each")


def test_acceptance_2_or_rewrite_reproduction():
    arch = load_arch("client_server_sync")
    (server,) = arch.aeis["S"].equations

    def golden_branch(j: int) -> m.Branch:
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

    golden = m.Choice((golden_branch(1), golden_branch(2)))
    assert server.body == golden
    report(2, "or-rewrite of the server yields the two-branch indexed choice (golden AST)")


def test_acceptance_3_queue_insertion_reproduction():
    arch = load_arch("client_server_async")
    queues = [name for name, elab in arch.aeis.items() if elab.is_queue]
    assert queues == ["OAQ_1", "OAQ_2"]
    composites = {f.composite for f in arch.families}
    for i in (1, 2):
        assert f"S.send_response_{i}#OAQ_{i}.arrive" in composites
        assert f"OAQ_{i}.depart#C_{i}.receive_response" in composites
    report(3, "elaboration adds exactly OAQ_1/OAQ_2 with the expected composite names")


def test_acceptance_4_cruise_control_verification():
    started = time.perf_counter()
    arch = load_arch("cruise_control", capacity=2)

    interop = check_interoperability(arch, ("S", "C", "D", "A"), "S")
    assert interop.equivalent, "S must interoperate with the cycle"
    assert interop.lhs_states < 10**6

    compat = check_compatibility(arch, "S", "P")
    assert compat.equivalent, "S must be compatible with P"
    assert compat.lhs_states < 10**6

    reduction = verify_deadlock_by_reduction(arch)
    assert all_conditions_hold(reduction)
    assert reduction.status == "deadlock_free"

    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock_free"
    assert direct.states < 10**6

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"cruise-control verification took {elapsed:.1f}s"
    report(4, f"cruise control: interoperability, compatibility, reduction, and direct "
              f"check all agree on deadlock freedom in {elapsed:.2f}s")


def test_acceptance_5_capacity_robustness():
    varch = validate(parse(fixture_source("client_server_async")))
    verdicts = {}
    for capacity in (1, 2, 3):
        arch = elaborate(varch, capacity)
        verdicts[capacity] = verify_deadlock_direct(arch).status
    assert verdicts == {1: "deadlock_free", 2: "deadlock_free", 3: "deadlock_free"}
    report(5, "direct check is deadlock-free at queue capacities 1, 2, and 3")


def test_acceptance_6_mutation_sensitivity():
    cases = []

    arch = load_arch("mutant_server_silent")
    cases.append(("mutant_server_silent", arch, check_compatibility(arch, "S", "C_1")))
    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock", "the silent server must deadlock the system"

    arch = load_arch("mutant_detector_halt")
    cases.append(
        ("mutant_detector_halt", arch,
         check_interoperability(arch, ("S", "C", "D", "A"), "S"))
    )

    arch = load_arch("mutant_panel_no_catch")
    cases.append(("mutant_panel_no_catch", arch, check_compatibility(arch, "S", "P")))
    direct = verify_deadlock_direct(arch)
    assert direct.status == "deadlock", "the catchless panel must deadlock the system"

    for name, arch, outcome in cases:
        assert not outcome.equivalent, f"{name}: the check must fail"
        lhs, rhs, verdict = check_evidence(arch, outcome)
        formula = verdict.formula
        assert formula is not None
        assert eval_formula(lhs, formula), f"{name}: formula must hold on the lhs"
        assert not eval_formula(rhs, formula), f"{name}: formula must fail on the rhs"
    report(6, "three mutants break the expected checks with model-checked "
              "distinguishing formulas; the direct check confirms the composable ones")


def test_acceptance_7_equivalence_property_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    iterations = 1000
    for k in range(iterations):
        l1 = random_lts(rng, max_states=8)
        l2 = tau_pad(l1, rng) if rng.random() < 0.5 else random_lts(rng, max_states=8)
        l3 = tau_pad(l2, rng) if rng.random() < 0.5 else random_lts(rng, max_states=8)

        # equivalence-relation laws
        assert weak_bisim_check(l1, l1).equivalent
        r12 = weak_bisim_check(l1, l2).equivalent
        assert r12 == weak_bisim_check(l2, l1).equivalent
        if r12 and weak_bisim_check(l2, l3).equivalent:
            assert weak_bisim_check(l1, l3).equivalent

        # tau law: a.tau.P ~ a.P
        assert weak_bisim_check(
            prefix_lts("a", prefix_lts("tau", l1)), prefix_lts("a", l1)
        ).equivalent

        # saturation correspondence: weak check == strong check on saturations
        assert r12 == strong_bisim_check(saturate(l1), saturate(l2)).equivalent

        # congruence for the static operators on an equivalent pair
        pad = tau_pad(l1, rng)
        assert weak_bisim_check(
            parallel(l1, l3, {"a"}), parallel(pad, l3, {"a"})
        ).equivalent
        assert weak_bisim_check(
            hide(l1, keep_only={"a", "c"}), hide(pad, keep_only={"a", "c"})
        ).equivalent
        assert weak_bisim_check(
            relabel(l1, {"a": "z"}), relabel(pad, {"a": "z"})
        ).equivalent

        # minimization
        small = minimize(l1)
        assert weak_bisim_check(small, l1).equivalent
        assert minimize(small).n_states == small.n_states

        # spot-check the engine against the naive fixpoint oracle
        if k % 50 == 0:
            tiny1 = random_lts(rng, max_states=4)
            tiny2 = random_lts(rng, max_states=4)
            assert weak_bisim_check(tiny1, tiny2).equivalent == naive_weak_bisim(tiny1, tiny2)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"
    report(7, f"{iterations} random systems: laws, tau-law, saturation correspondence, "
              f"congruence, minimization all hold in {elapsed:.1f}s")


def test_acceptance_8_reduction_soundness_harness():
    agreements = 0
    for name in ALL_FIXTURES:
        arch = load_arch(name)
        reduction = verify_deadlock_by_reduction(arch)
        if not all_conditions_hold(reduction):
            continue
        direct = verify_deadlock_direct(arch)
        assert direct.status in ("deadlock_free", "deadlock")
        assert reduction.status == direct.status, (
            f"{name}: reduction says {reduction.status}, direct says {direct.status}"
        )
        agreements += 1
    assert agreements >= 4
    report(8, f"reduction and direct verdicts agree on all {agreements} fixtures "
              "whose conditions hold")


def test_acceptance_9_aut_round_trip():
    rng = random.Random(99)
    whole = 0
    for _ in range(100):
        lts = random_lts(rng, max_states=8)
        text = write_aut(lts)
        reachable = reachable_part(lts)
        assert write_aut(read_aut(text)) == write_aut(reachable)
        if reachable.n_states == lts.n_states:
            assert write_aut(read_aut(text)) == text
            whole += 1
    assert whole >= 30
    report(9, f"AUT export-import-export is byte-identical on the {whole} of 100 random "
              "systems whose states are all reachable, and keeps the reachable part of the rest")
