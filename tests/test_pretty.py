from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import fixture_source
from padlver import PadlError, parse, pretty_print, validate
from padlver import model as m

ALL_FIXTURES = (
    "client_server_sync",
    "client_server_async",
    "cruise_control",
    "mutant_server_silent",
    "mutant_detector_halt",
    "mutant_panel_no_catch",
    "deadlock_pair",
    "two_islands",
    "sulky_receiver",
    "cycle_dying_member",
    "metered_clients",
)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip(name):
    ast = parse(fixture_source(name))
    assert parse(pretty_print(ast)) == ast


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_double_round_trip_is_stable(name):
    src = fixture_source(name)
    once = pretty_print(parse(src))
    assert pretty_print(parse(once)) == once


def test_dep_emitted_verbatim():
    text = pretty_print(parse(fixture_source("client_server_sync")))
    assert "OR send_response DEP receive_request" in text


def test_void_params_emitted():
    text = pretty_print(parse(fixture_source("client_server_sync")))
    assert "Server_Type(void)" in text
    assert "Server(void; void) =" in text


def test_default_sync_qualifier_is_spelled_out():
    text = pretty_print(parse(fixture_source("client_server_sync")))
    assert "SYNC OR receive_request" in text


def test_validate_is_total_on_parseable_inputs():
    # Either a validated architecture or at least one diagnostic.
    good = fixture_source("client_server_sync")
    arch = validate(parse(good))
    assert arch is not None
    broken = good.replace("FROM C_1.send_request TO S.receive_request",
                          "FROM C_1.send_request TO C_2.receive_response")
    with pytest.raises(PadlError) as err:
        validate(parse(broken))
    assert len(err.value.diagnostics) >= 1


def guarded(d: m.ArchiDescription, guard: m.Expr) -> m.ArchiDescription:
    """d, a one-AET, one-equation description, with its body behind one
    branch guarded by guard."""
    (aet,) = d.aets
    (eq,) = aet.equations
    body = m.Choice((m.Branch(guard, eq.body),))
    return replace(d, aets=(replace(aet, equations=(replace(eq, body=body),)),))


def test_comparison_on_the_left_of_a_comparison_keeps_its_parentheses():
    source = fixture_source("deadlock_pair").replace(
        "take . give . Node()", "choice { cond((1 = 1) = true) -> take . give . Node() }")
    d = parse(source)
    validate(d)
    text = pretty_print(d)
    assert "cond((1 = 1) = true)" in text
    assert parse(text) == d


def random_guard(rng: random.Random, depth: int) -> m.Expr:
    """Any tree of operators and literals the parser can build, well
    typed or not."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return rng.choice([m.BoolLit(rng.random() < 0.5), m.IntLit(rng.randrange(3)),
                           m.Var(rng.choice("ab")), m.SuccessVar("x")])
    if roll < 0.4:
        return m.Unary(rng.choice(["not", "-"]), random_guard(rng, depth - 1))
    return m.Binary(rng.choice(["or", "and", "=", "/=", "<", "<=", ">", ">=", "+", "-"]),
                    random_guard(rng, depth - 1), random_guard(rng, depth - 1))


def test_random_guards_round_trip():
    rng = random.Random(2026)
    base = parse(fixture_source("deadlock_pair"))
    for _ in range(2000):
        d = guarded(base, random_guard(rng, rng.randint(1, 6)))
        assert parse(pretty_print(d)) == d
