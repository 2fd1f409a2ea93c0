from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_source
from padlver import PadlError, parse
from padlver import model as m
from padlver.diagnostics import Loc
from padlver.parser import tokenize

FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.padl"))


def test_client_server_shape():
    ast = parse(fixture_source("client_server_sync"))
    assert ast.name == "Client_Server"
    assert len(ast.aets) == 2
    assert len(ast.instances) == 3
    assert len(ast.attachments) == 4
    assert ast.archi_interactions == ()
    first = ast.attachments[0]
    assert first.source == ("C_1", "send_request")
    assert first.target == ("S", "receive_request")


def test_void_archi_interactions_is_empty_set():
    ast = parse(fixture_source("client_server_sync"))
    assert ast.archi_interactions == ()


def test_qualifiers_and_dep():
    ast = parse(fixture_source("client_server_sync"))
    server = ast.aet("Server_Type")
    recv = server.interaction("receive_request")
    send = server.interaction("send_response")
    assert recv.direction is m.Direction.INPUT
    assert recv.multiplicity is m.Multiplicity.OR
    assert recv.synchronicity is m.Synchronicity.SYNC  # default
    assert send.dep_on == "receive_request"


def test_sync_qualifiers_parse():
    ast = parse(fixture_source("client_server_async"))
    server = ast.aet("Server_Type")
    client = ast.aet("Client_Type")
    assert server.interaction("send_response").synchronicity is m.Synchronicity.ASYNC
    assert client.interaction("send_request").synchronicity is m.Synchronicity.SSYNC
    assert client.interaction("receive_response").synchronicity is m.Synchronicity.SYNC


def test_qualifier_group_without_separator():
    # OUTPUT_INTERACTIONS SYNC UNI a; b AND c; d  -- a new group may start
    # right after a name, as in the sensor listing.
    ast = parse(fixture_source("cruise_control"))
    sensor = ast.aet("Sensor_Type")
    assert sensor.interaction("press_resume").multiplicity is m.Multiplicity.UNI
    assert sensor.interaction("turn_engine_on").multiplicity is m.Multiplicity.AND
    assert sensor.interaction("turn_engine_off").multiplicity is m.Multiplicity.AND


def test_success_variable_and_guards():
    ast = parse(fixture_source("client_server_async"))
    client = ast.aet("Client_Type")
    interacting = client.equations[1]
    body = interacting.body
    assert isinstance(body, m.Prefix)
    choice = body.cont
    assert isinstance(choice, m.Choice)
    guard = choice.branches[0].guard
    assert isinstance(guard, m.Binary) and guard.op == "="
    assert isinstance(guard.left, m.SuccessVar)
    assert guard.left.action == "send_request"


def test_equation_parameters():
    ast = parse(fixture_source("cruise_control"))
    panel = ast.aet("Panel_Type")
    checking = next(eq for eq in panel.equations if eq.name == "Checking")
    assert len(checking.params) == 1
    assert isinstance(checking.params[0].type, m.BoolType)
    active = next(eq for eq in panel.equations if eq.name == "Active")
    branch = active.body.branches[0]
    invoke = branch.body.cont
    assert isinstance(invoke, m.Invoke)
    assert isinstance(invoke.args[0], m.SuccessVar)


def test_missing_end_is_a_syntax_diagnostic():
    src = fixture_source("client_server_sync").replace("END", "")
    with pytest.raises(PadlError) as err:
        parse(src)
    assert err.value.codes() == ["E_SYNTAX"]
    # the error points at the end of the input
    assert err.value.diagnostics[0].loc.line >= 30


def test_trailing_comma_in_choice_is_tolerated():
    src = fixture_source("cruise_control").replace(
        "cond(success = false) -> beep . Active()",
        "cond(success = false) -> beep . Active(),",
    )
    parse(src)


def test_keywords_are_case_sensitive():
    src = fixture_source("client_server_sync").replace("ARCHI_TYPE", "archi_type")
    with pytest.raises(PadlError):
        parse(src)


def test_branch_may_not_start_with_invocation():
    src = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE X_Type(void)
      BEHAVIOR
        A(void; void) = choice { B(), a . A() };
        B(void; void) = a . B()
      INPUT_INTERACTIONS void
      OUTPUT_INTERACTIONS SYNC UNI a
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES X : X_Type()
    ARCHI_INTERACTIONS X.a
    ARCHI_ATTACHMENTS void
END
"""
    with pytest.raises(PadlError):
        parse(src)


def test_int_type_requires_range():
    src = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE X_Type(void)
      BEHAVIOR
        A(int n := 0; void) = a . A(n)
      INPUT_INTERACTIONS void
      OUTPUT_INTERACTIONS SYNC UNI a
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES X : X_Type()
    ARCHI_INTERACTIONS X.a
    ARCHI_ATTACHMENTS void
END
"""
    with pytest.raises(PadlError):
        parse(src)


def test_parses_match_golden_digest():
    # tests/golden/parse_digest.txt holds the output of
    # `python3 tools/parse_digest.py .`: one sha256 per benchmark input and
    # fixture over repr of its AST, locations included, and per fixture one
    # over the diagnostics of 400 truncations, then a total.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "tools" / "parse_digest.py"), str(root)],
                          capture_output=True, check=True)
    assert done.stdout == (root / "tests" / "golden" / "parse_digest.txt").read_bytes()


@pytest.mark.parametrize("cut", [10, 40, 80, 200, 400, 600])
def test_truncated_sources_fail_cleanly(cut):
    # Malformed input must yield diagnostics, never an internal error.
    src = fixture_source("cruise_control")[:cut]
    with pytest.raises(PadlError):
        parse(src)


def test_diagnostics_have_positions():
    with pytest.raises(PadlError) as err:
        parse("ARCHI_TYPE ???")
    d = err.value.diagnostics[0]
    assert d.loc.line == 1 and d.loc.column >= 12
    assert "error[" in d.render("f.padl")
    with pytest.raises(PadlError) as err:
        parse("ARCHI_TYPE ???", filename="f.padl")
    assert str(err.value) == "f.padl:1:12: error[E_LEX]: unexpected character '?'"


def test_mutated_sources_never_escape_the_diagnostic_channel():
    import random

    rng = random.Random(123)
    base = fixture_source("cruise_control")
    for _ in range(150):
        pos = rng.randrange(len(base))
        op = rng.random()
        if op < 0.4:
            mutated = base[:pos] + base[pos + rng.randint(1, 30):]
        elif op < 0.8:
            mutated = base[:pos] + rng.choice("(){};.:=<>#@!") + base[pos:]
        else:
            mutated = base[:pos] + rng.choice(["END", "choice", "void", "FROM"]) + base[pos:]
        try:
            parse(mutated)
        except PadlError:
            pass  # the only acceptable failure mode
    # Characters that str takes for digits, numbers, blanks or letters,
    # and digit runs past int()'s default limit of 4300 digits, in place
    # of a word of any fixture: where an integer literal may stand, too.
    for _ in range(300):
        source = fixture_source(rng.choice(FIXTURE_NAMES))
        start, end = rng.choice([word.span() for word in re.finditer(r"\w+", source)])
        inserted = rng.choice(["²", "①", "٣", "Ⅻ", "\xa0", "\f", "\u3000", "é",
                               "9" * rng.randint(4000, 6000), "٣" * 5000])
        try:
            parse(source[:start] + inserted + source[end:])
        except PadlError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(0, 10**6),
       st.text(st.characters(), min_size=1, max_size=3))
def test_inserted_characters_never_escape_the_diagnostic_channel(name, pos, inserted):
    base = fixture_source(name)
    pos %= len(base) + 1
    try:
        parse(base[:pos] + inserted + base[pos:])
    except PadlError:
        pass


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_token_is_found_at_its_line_and_column(name):
    lines = fixture_source(name).split("\n")
    tokens = tokenize("\n".join(lines))
    assert tokens[-1].kind == "EOF"
    for tok in tokens[:-1]:
        assert lines[tok.line - 1][tok.column - 1:].startswith(tok.text), tok
    assert (tokens[-1].line, tokens[-1].column) == (len(lines), len(lines[-1]) + 1)


@pytest.mark.parametrize("char", ["²", "①", "Ⅻ", "\xa0", "\f"])
def test_characters_outside_the_notation_are_lexical_errors(char):
    # '²' and '①' are digits to str.isdigit but not to int(); 'Ⅻ' is
    # numeric and '\xa0' a space, but not to the notation
    source = fixture_source("deadlock_pair").replace("take . give", f"take . {char}give")
    with pytest.raises(PadlError) as err:
        parse(source)
    (diag,) = err.value.diagnostics
    assert (diag.code, diag.message) == ("E_LEX", f"unexpected character {char!r}")
    assert diag.loc == Loc(8, 18)


def test_unicode_decimal_digits_are_integer_literals():
    assert parse_guard("x = ٣٣") == m.Binary("=", m.Var("x"), m.IntLit(33))


@pytest.mark.parametrize("guard", [
    "(" * 3000 + "true" + ")" * 3000,
    "not " * 3000 + "true",
    "- " * 3000 + "1 = 1",
    "+".join(["1"] * 3000) + " = 3000",
    " or ".join(["true"] * 3000),
    # neither chain passes the limit alone; nested, they do
    "(0" + "+1" * 500 + ")" + "+1" * 500 + " = 1000",
], ids=["parens", "not", "minus", "plus", "or", "nested_chains"])
def test_deep_expression_is_a_depth_diagnostic(guard):
    source = fixture_source("deadlock_pair").replace(
        "take . give . Node()", f"choice {{ cond({guard}) -> take . give . Node() }}")
    with pytest.raises(PadlError) as err:
        parse(source)
    assert err.value.codes() == ["E_DEPTH"]
    assert err.value.diagnostics[0].loc.line == 8


@pytest.mark.parametrize("literal, column", [("9" * 5000, 29), ("-" + "٣" * 5000, 30)])
def test_overlong_integer_literal_is_a_positioned_diagnostic(literal, column):
    # int() refuses more than 4300 digits by default
    source = fixture_source("deadlock_pair").replace(
        "take . give . Node()", f"choice {{ cond(1 = {literal}) -> take . give . Node() }}")
    with pytest.raises(PadlError) as err:
        parse(source)
    (diag,) = err.value.diagnostics
    assert (diag.code, diag.message) == ("E_SYNTAX", "integer literal too long (5000 digits)")
    assert diag.loc == Loc(8, column)


def parse_guard(guard: str) -> m.Expr:
    """The guard of a one-branch choice on line 8 of deadlock_pair; the
    guard text starts at column 25."""
    source = fixture_source("deadlock_pair").replace(
        "take . give . Node()", f"choice {{ cond({guard}) -> take . give . Node() }}")
    return parse(source).aets[0].equations[0].body.branches[0].guard


a, b, c = (m.Var(name) for name in "abc")
one, two = m.IntLit(1), m.IntLit(2)


@pytest.mark.parametrize("guard, ast", [
    ("a or b and c", m.Binary("or", a, m.Binary("and", b, c))),
    ("not a = b", m.Unary("not", m.Binary("=", a, b))),
    ("not a and b", m.Binary("and", m.Unary("not", a), b)),
    ("a - b - c", m.Binary("-", m.Binary("-", a, b), c)),
    ("-1 + 2", m.Binary("+", m.Unary("-", one), two)),
    ("(1 = 1) = true", m.Binary("=", m.Binary("=", one, one), m.BoolLit(True))),
    ("1 = 1 = 1", "expected ')', found '=' at 31"),
    ("true and false <= x = y", "expected ')', found '=' at 45"),
    ("not 1 = 1 = x", "expected ')', found '=' at 35"),
    ("a = not b", "expected an expression, found 'not' at 29"),
])
def test_operator_precedence_and_associativity(guard, ast):
    # loosest to tightest: or, and, not, comparisons (which do not
    # chain), + and - (to the left), unary minus
    if isinstance(ast, str):
        with pytest.raises(PadlError) as err:
            parse_guard(guard)
        (diag,) = err.value.diagnostics
        assert (diag.code, f"{diag.message} at {diag.loc.column}", diag.loc.line) \
            == ("E_SYNTAX", ast, 8)
    else:
        assert parse_guard(guard) == ast
