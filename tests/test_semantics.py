from __future__ import annotations

import operator

import pytest

from conftest import fixture_source
from padlver import parse
from padlver import model as m
from padlver.diagnostics import SemanticsError, StateLimitExceeded
from padlver.elaborate import _queue_aet_equations
from padlver.semantics import eval_expr, generate_lts


def eq(name, body, params=()):
    return m.BehaviorEquation(name, tuple(params), body)


def test_stop_has_single_state_and_no_transitions():
    lts = generate_lts([eq("Dead", m.Stop())], {})
    assert lts.n_states == 1
    assert lts.transition_view() == []


def test_queue_initially_enables_only_arrive():
    # guard on depart is n > 0, so the empty queue can only accept
    lts = generate_lts(_queue_aet_equations(1), {}, prefix="Q")
    initial_moves = {lts.labels[l] for l, _, _, _ in lts.trans[lts.initial]}
    assert initial_moves == {"Q.arrive"}
    assert lts.n_states == 2  # n = 0 and n = 1


def test_queue_capacity_blocks_arrive_when_full():
    lts = generate_lts(_queue_aet_equations(2), {}, prefix="Q",
                       mark_when=lambda env: env.get("n") == 2)
    assert lts.n_states == 3
    full = next(iter(lts.marked))
    moves = {lts.labels[l] for l, _, _, _ in lts.trans[full]}
    assert moves == {"Q.depart"}


def test_queue_capacity_sublts():
    # canonical numbering puts n = k at state k, so the capacity-1
    # system embeds into the capacity-2 one
    small = generate_lts(_queue_aet_equations(1), {}, prefix="Q")
    large = generate_lts(_queue_aet_equations(2), {}, prefix="Q")
    small_view = set(small.transition_view())
    large_view = set(large.transition_view())
    assert small.n_states <= large.n_states
    assert {t for t in small_view if t[1] == "Q.arrive" and t[0] < small.n_states - 1} \
        <= large_view
    assert {t for t in small_view if t[1] == "Q.depart"} <= large_view


def test_client_in_isolation_has_both_outcomes():
    # after send_request two successors: one enabling receive_response
    # (success) and one enabling keep_processing (exception)
    ast = parse(fixture_source("client_server_async"))
    client = ast.aet("Client_Type")
    lts = generate_lts(client.equations, {}, prefix="C_1",
                       ssync_actions={"send_request"})
    (send,) = [move for move in lts.trans[1] if lts.labels[move[0]] == "C_1.send_request"]
    _, ok, exc_label, exc = send
    assert exc >= 0
    ok_moves = {lts.labels[l] for l, _, _, _ in lts.trans[ok]}
    exc_moves = {lts.labels[l] for l, _, _, _ in lts.trans[exc]}
    assert ok_moves == {"C_1.receive_response"}
    assert exc_moves == {"C_1.keep_processing"}
    assert lts.labels[exc_label] == "C_1.send_request_exception"


def test_false_guards_contribute_nothing():
    body = m.Choice((
        m.Branch(m.BoolLit(True), m.Prefix("a", m.Invoke("E", ()))),
        m.Branch(m.BoolLit(False), m.Prefix("b", m.Invoke("E", ()))),
    ))
    lts = generate_lts([eq("E", body)], {})
    assert {lts.labels[l] for l, _, _, _ in lts.trans[0]} == {"a"}


def test_parameter_values_drive_guards():
    # E(n) = choice { cond(n < 2) -> up . E(n + 1), cond(n > 0) -> down . E(n - 1) }
    n = m.Var("n")
    body = m.Choice((
        m.Branch(m.Binary("<", n, m.IntLit(2)), m.Prefix("up", m.Invoke("E", (m.Binary("+", n, m.IntLit(1)),)))),
        m.Branch(m.Binary(">", n, m.IntLit(0)), m.Prefix("down", m.Invoke("E", (m.Binary("-", n, m.IntLit(1)),)))),
    ))
    lts = generate_lts([eq("E", body, [m.Param("n", m.IntType(0, 2), m.IntLit(0))])], {})
    assert lts.n_states == 3


def test_out_of_range_invocation_rejected():
    body = m.Prefix("a", m.Invoke("E", (m.Binary("+", m.Var("n"), m.IntLit(1)),)))
    with pytest.raises(SemanticsError):
        generate_lts([eq("E", body, [m.Param("n", m.IntType(0, 1), m.IntLit(0))])], {})


def test_unguarded_recursion_detected():
    looping = [eq("A", m.Invoke("B", ())), eq("B", m.Invoke("A", ()))]
    with pytest.raises(SemanticsError):
        generate_lts(looping, {})


def test_unknown_equation_rejected():
    with pytest.raises(SemanticsError):
        generate_lts([eq("A", m.Invoke("Nope", ()))], {})


def test_state_limit_reports_progress():
    # The error counts the states numbered and the moves appended before
    # the refused state.  A tick chain refuses E(10) after nine ticks.
    # E(n) = s . choice { cond(s.success) -> a . E(n + 1),
    #                     cond(not s.success) -> b . E(n + 1) }
    # numbers E(0), its two continuations, then E(1), whose semi-
    # synchronous move interns its success continuation (state 4) and
    # then its exception continuation: limit 5 refuses that one after
    # three moves, since both are interned before the move is appended.
    n, s = m.Var("n"), m.SuccessVar("s")
    up = (m.Binary("+", n, m.IntLit(1)),)
    tick = m.Prefix("tick", m.Invoke("E", up))
    ssync = m.Prefix("s", m.Choice((
        m.Branch(s, m.Prefix("a", m.Invoke("E", up))),
        m.Branch(m.Unary("not", s), m.Prefix("b", m.Invoke("E", up))),
    )))
    for body, limit, states, transitions in ((tick, 10, 10, 9), (ssync, 5, 5, 3)):
        with pytest.raises(StateLimitExceeded) as err:
            generate_lts(
                [eq("E", body, [m.Param("n", m.IntType(0, 500), m.IntLit(0))])], {},
                ssync_actions={"s"}, state_limit=limit,
            )
        assert (err.value.limit, err.value.states_seen, err.value.transitions_seen) == (
            limit, states, transitions)


def test_generation_is_deterministic():
    ast = parse(fixture_source("cruise_control"))
    panel = ast.aet("Panel_Type")
    ssync = {"signal_engine_on", "signal_engine_off", "signal_accelerator",
             "signal_brake", "signal_on", "signal_off", "signal_resume"}
    one = generate_lts(panel.equations, {}, prefix="P", ssync_actions=ssync)
    two = generate_lts(panel.equations, {}, prefix="P", ssync_actions=ssync)
    assert one == two


def test_success_environment_is_live_only():
    # an unread success flag does not split states: both continuations
    # of the semisync transition coincide
    body = m.Prefix("s", m.Prefix("next", m.Invoke("E", ())))
    lts = generate_lts([eq("E", body)], {}, ssync_actions={"s"})
    ((_, ok, _, exc),) = [move for move in lts.trans[lts.initial] if move[3] >= 0]
    assert ok == exc


@pytest.mark.parametrize("flag, states", [(True, 4), (False, 2)])
def test_actuals_bind_under_each_equations_own_parameters(flag, states):
    # E(int(0..3) n := k) = up . F(k);
    # F(int(0..3) k) = choice { cond(k > 0 and flag) -> down . F(k - 1),
    #                           cond(k = 0) -> reset . E(k) }
    # F's own k shadows the actual k = 2 that E's default and argument read
    k, one = m.Var("k"), m.IntLit(1)
    f_body = m.Choice((
        m.Branch(m.Binary("and", m.Binary(">", k, m.IntLit(0)), m.Var("flag")),
                 m.Prefix("down", m.Invoke("F", (m.Binary("-", k, one),)))),
        m.Branch(m.Binary("=", k, m.IntLit(0)), m.Prefix("reset", m.Invoke("E", (k,)))),
    ))
    lts = generate_lts([eq("E", m.Prefix("up", m.Invoke("F", (k,))),
                           [m.Param("n", m.IntType(0, 3), k)]),
                        eq("F", f_body, [m.Param("k", m.IntType(0, 3), None)])],
                       {"k": 2, "flag": flag})
    assert lts.n_states == states
    assert [lts.labels[l] for l, _, _, _ in lts.trans[lts.n_states - 1]] == \
        (["reset"] if flag else [])


PYTHON_OPS = {
    "or": lambda a, b: a or b, "and": lambda a, b: a and b,
    "=": operator.eq, "/=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
}


@pytest.mark.parametrize("op", PYTHON_OPS)
def test_eval_expr_applies_every_binary_operator(op):
    # and/or take booleans, + and - integers, comparisons either
    domains = {"or": [[False, True]], "and": [[False, True]], "+": [[-2, 0, 3]],
               "-": [[-2, 0, 3]]}.get(op, [[False, True], [-2, 0, 3]])
    result = int if op in ("+", "-") else bool
    for values in domains:
        for left in values:
            for right in values:
                got = eval_expr(m.Binary(op, m.Var("l"), m.Var("r")), {"l": left, "r": right})
                assert got == PYTHON_OPS[op](left, right)
                assert type(got) is result
