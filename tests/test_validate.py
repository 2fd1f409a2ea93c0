from __future__ import annotations

import pytest

from conftest import attach_no, fixture_source, load_arch
from padlver import PadlError, parse, validate
from padlver.diagnostics import Severity
from padlver.elaborate import elaborate
from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct

MINIMAL = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE A_Type(void)
      BEHAVIOR
        A(void; void) = out . A()
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS {out_quals} out
    ARCHI_ELEM_TYPE B_Type(void)
      BEHAVIOR
        B(void; void) = inp . B()
      INPUT_INTERACTIONS  {in_quals} inp
      OUTPUT_INTERACTIONS void
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      A_1 : A_Type();
      B_1 : B_Type();
      B_2 : B_Type()
    ARCHI_INTERACTIONS
      {archi}
    ARCHI_ATTACHMENTS
      {attachments}
END
"""


def minimal(out_quals="SYNC UNI", in_quals="SYNC UNI", archi="void",
            attachments="FROM A_1.out TO B_1.inp"):
    return MINIMAL.format(out_quals=out_quals, in_quals=in_quals,
                          archi=archi, attachments=attachments)


def codes(src: str) -> list[str]:
    with pytest.raises(PadlError) as err:
        validate(parse(src))
    return err.value.codes()


def test_bundled_fixtures_validate_cleanly():
    for name in ("client_server_sync", "client_server_async", "cruise_control"):
        arch = validate(parse(fixture_source(name)))
        assert arch.warnings == []


def test_attachment_direction():
    # input-to-input attachment is inadmissible
    src = minimal(attachments="FROM B_1.inp TO B_2.inp")
    assert "E_ATTACH_DIR" in codes(src)


def test_uni_fanout():
    src = minimal(attachments="FROM A_1.out TO B_1.inp;\n      FROM A_1.out TO B_2.inp")
    assert "E_UNI_FANOUT" in codes(src)


def test_and_interaction_may_fan_out():
    src = minimal(out_quals="SYNC AND",
                  attachments="FROM A_1.out TO B_1.inp;\n      FROM A_1.out TO B_2.inp")
    arch = validate(parse(src))
    assert attach_no(arch, ("A_1", "out")) == 2


def test_multi_to_multi_rejected():
    src = minimal(out_quals="SYNC AND", in_quals="SYNC OR")
    assert "E_MULTI_TO_MULTI" in codes(src)


def test_self_attachment_rejected():
    src = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE A_Type(void)
      BEHAVIOR
        A(void; void) = out . inp . A()
      INPUT_INTERACTIONS  SYNC UNI inp
      OUTPUT_INTERACTIONS SYNC UNI out
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES A_1 : A_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS FROM A_1.out TO A_1.inp
END
"""
    assert "E_ATTACH_SELF" in codes(src)


def test_unknown_endpoint():
    src = minimal(attachments="FROM A_1.out TO B_9.inp")
    assert "E_ATTACH_UNDEF" in codes(src)


def test_duplicate_attachment():
    src = minimal(out_quals="SYNC AND",
                  attachments="FROM A_1.out TO B_1.inp;\n      FROM A_1.out TO B_1.inp")
    found = codes(src)
    assert "E_DUP_ATTACH" in found


def test_archi_interactions_disjoint_from_attached():
    src = minimal(archi="A_1.out")
    assert "E_ARCHI_ATTACHED" in codes(src)


def test_unattached_interaction_warns():
    src = minimal(attachments="void")
    arch = validate(parse(src))
    assert {d.code for d in arch.warnings} == {"W_UNATTACHED"}


def test_dep_counts_must_match():
    src = fixture_source("client_server_sync").replace(
        "FROM S.send_response  TO C_2.receive_response", ""
    ).replace(
        "FROM S.send_response  TO C_1.receive_response;",
        "FROM S.send_response  TO C_1.receive_response",
    )
    assert "E_DEP_COUNT" in codes(src)


def test_dep_must_be_output_or():
    src = """ARCHI_TYPE T(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE A_Type(void)
      BEHAVIOR
        A(void; void) = inp . out . A()
      INPUT_INTERACTIONS  SYNC UNI inp
      OUTPUT_INTERACTIONS SYNC UNI out DEP inp
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES A_1 : A_Type()
    ARCHI_INTERACTIONS A_1.inp; A_1.out
    ARCHI_ATTACHMENTS void
END
"""
    assert "E_DEP_KIND" in codes(src)


def test_undefined_equation_and_arity():
    src = minimal().replace("out . A()", "out . Missing()")
    assert "E_UNDEF_EQUATION" in codes(src)
    src = minimal().replace("out . A()", "out . A(true)")
    assert "E_ARITY" in codes(src)


def test_guard_type_checking():
    src = fixture_source("client_server_async").replace(
        "cond(send_request.success = true)", "cond(send_request.success + 1)"
    )
    found = codes(src)
    assert "E_TYPE" in found


COMPARISONS = ("=", "/=", "<", "<=", ">", ">=")


@pytest.mark.parametrize("guard, messages", [
    ("f and n", ["operator 'and' expects boolean operands"]),
    ("n or n", ["operator 'or' expects boolean operands"] * 2),
    *[(f"f {op} n", [f"comparison '{op}' mixes bool and int"]) for op in COMPARISONS],
    ("f + 1 = n", ["operator '+' expects integer operands"]),
    ("n - f = n", ["operator '-' expects integer operands"]),
    ("not n", ["operator 'not' expects a bool operand"]),
    ("-f = n", ["operator '-' expects a int operand"]),
    ("n + 1", ["guards must be boolean"]),
])
def test_type_error_messages(guard, messages):
    src = minimal().replace(
        "A(void; void) = out . A()",
        f"A(int(0..3) n := 0, boolean f := true; void) = choice {{ cond({guard}) -> out . A(n, f) }}")
    with pytest.raises(PadlError) as err:
        validate(parse(src))
    assert [d.message for d in err.value.diagnostics if d.code == "E_TYPE"] == messages


def test_success_requires_ssync_declaration():
    src = fixture_source("client_server_async").replace("SSYNC UNI send_request",
                                                        "SYNC UNI send_request")
    assert "E_SUCCESS_NOT_SSYNC" in codes(src)


def test_success_read_before_execution():
    src = fixture_source("client_server_async").replace(
        "send_request .\n            choice", "choice"
    )
    assert "E_SUCCESS_UNSET" in codes(src)


def test_unused_interaction():
    src = minimal().replace("out . A()", "quiet . A()")
    assert "E_UNUSED_INTERACTION" in codes(src)


def test_reserved_names():
    src = minimal().replace("A_1 : A_Type()", "OAQ_1 : A_Type()").replace(
        "FROM A_1.out", "FROM OAQ_1.out")
    assert "E_RESERVED_NAME" in codes(src)
    src = fixture_source("client_server_sync").replace("Server_Type", "Async_Queue_Type")
    assert "E_RESERVED_NAME" in codes(src)
    # the exception namespace is reserved too: such a name could end up
    # inside a synchronization set and collide with raised exceptions
    src = minimal().replace("out", "out_exception")
    assert "E_RESERVED_NAME" in codes(src)


def test_unknown_aet_and_duplicate_instance():
    src = minimal().replace("B_2 : B_Type()", "B_2 : Zz_Type()")
    assert "E_UNDEF_AET" in codes(src)
    src = minimal().replace("B_2 : B_Type()", "B_1 : B_Type()")
    assert "E_DUP_INSTANCE" in codes(src)


def test_all_violations_collected_in_one_pass():
    src = minimal(
        archi="A_1.nope",
        attachments="FROM B_1.inp TO B_2.inp;\n      FROM A_1.out TO B_9.inp",
    )
    found = codes(src)
    assert len(found) >= 2


# -- attach_no ---------------------------------------------------------------


def test_attach_no_known_values():
    cs = validate(parse(fixture_source("client_server_sync")))
    assert attach_no(cs, ("S", "receive_request")) == 2
    assert attach_no(cs, ("C_1", "send_request")) == 1
    cc = validate(parse(fixture_source("cruise_control")))
    assert attach_no(cc, ("P", "init_applet")) == 0


def test_attach_no_unknown_endpoint():
    cs = validate(parse(fixture_source("client_server_sync")))
    with pytest.raises(ValueError):
        attach_no(cs, ("S", "no_such"))


def test_attach_no_sums():
    for name in ("client_server_sync", "client_server_async", "cruise_control"):
        arch = validate(parse(fixture_source(name)))
        d = arch.description
        out_sum = in_sum = 0
        for inst in d.instances:
            aet = arch.aets[inst.aet]
            for decl in aet.interactions:
                n = attach_no(arch, (inst.name, decl.name))
                if decl.direction.value == "output":
                    out_sum += n
                else:
                    in_sum += n
        assert out_sum == in_sum == len(d.attachments)


def const_errors(src: str) -> list:
    with pytest.raises(PadlError) as err:
        validate(parse(src))
    return [d for d in err.value.diagnostics if d.code == "E_CONST"]


def test_unbound_name_in_architectural_default_is_a_const_error():
    src = minimal().replace("ARCHI_TYPE T(void)", "ARCHI_TYPE T(int(0..3) n := 1 + m)")
    (diag,) = const_errors(src)
    assert diag.message == "cannot evaluate default of 'n': unbound name 'm'"
    assert (diag.loc.line, diag.loc.column) == (1, 14)


def test_unbound_name_in_instance_argument_is_a_const_error():
    src = (minimal()
           .replace("ARCHI_TYPE T(void)", "ARCHI_TYPE T(int(0..3) n := 2)")
           .replace("ARCHI_ELEM_TYPE A_Type(void)", "ARCHI_ELEM_TYPE A_Type(int(0..3) k)")
           .replace("A_1 : A_Type();", "A_1 : A_Type(n - m);"))
    (diag,) = const_errors(src)
    assert diag.message == "parameter of 'A_1': unbound name 'm'"
    assert (diag.loc.line, diag.loc.column) == (15, 7)


# -- parameter scope and constant defaults -------------------------------------------


def deadlock_pair(*replacements: tuple[str, str]) -> str:
    src = fixture_source("deadlock_pair")
    for old, new in replacements:
        assert old in src
        src = src.replace(old, new)
    return src


def errors(src: str) -> list[tuple[str, str, int, int]]:
    with pytest.raises(PadlError) as err:
        validate(parse(src))
    return [(d.code, d.message, d.loc.line, d.loc.column)
            for d in err.value.diagnostics if d.severity is Severity.ERROR]


def guarded(guard: str, args: str = "") -> str:
    return f"choice {{ cond({guard}) -> take . give . Node({args}) }}"


def test_equations_do_not_see_architectural_parameters():
    src = deadlock_pair(("Deadlock_Pair(void)", "Deadlock_Pair(int(0..3) n := 1)"),
                        ("take . give . Node()", guarded("n = 1")))
    assert errors(src) == [("E_SCOPE", "name 'n' is not in scope", 8, 25)]


def test_equations_see_their_aet_parameters():
    src = deadlock_pair(("Node_Type(void)", "Node_Type(int(0..3) k)"),
                        ("take . give . Node()", guarded("k = 1")),
                        ("Node_Type()", "Node_Type(1)"))
    plain, arch = load_arch("deadlock_pair"), elaborate(validate(parse(src)))
    for verify in (verify_deadlock_by_reduction, verify_deadlock_direct):
        assert verify(arch).status == verify(plain).status


def test_aei_arguments_read_architectural_parameters():
    def node_pair(arg: str):
        return elaborate(validate(parse(deadlock_pair(
            ("Deadlock_Pair(void)", "Deadlock_Pair(int(0..3) n := 1)"),
            ("Node_Type(void)", "Node_Type(int(0..3) k)"),
            ("take . give . Node()", guarded("k = 1")),
            ("L : Node_Type()", f"L : Node_Type({arg})"),
            ("R : Node_Type()", f"R : Node_Type({arg})"),
        ))))

    via_default, literal = node_pair("n"), node_pair("1")
    assert via_default.source.actuals == literal.source.actuals == {"L": {"k": 1}, "R": {"k": 1}}
    for aei in literal.real_aeis:
        assert via_default.aeis[aei].equations == literal.aeis[aei].equations
    for verify in (verify_deadlock_by_reduction, verify_deadlock_direct):
        assert verify(via_default).status == verify(literal).status


@pytest.mark.parametrize("replacements, expected", [
    pytest.param([("Deadlock_Pair(void)", "Deadlock_Pair(int(0..3) n := true)")],
                 ("E_TYPE", "default of 'n' has the wrong type", 1, 26), id="archi-bool-for-int"),
    pytest.param([("Deadlock_Pair(void)", "Deadlock_Pair(int(0..3) n := 7)")],
                 ("E_RANGE", "default of 'n' is outside int(0..3)", 1, 26), id="archi-out-of-range"),
    pytest.param([("Node(void; void)", "Node(int(0..3) n := true; void)"),
                  ("take . give . Node()", guarded("n = 1", "n"))],
                 ("E_TYPE", "default of 'n' has the wrong type", 7, 14), id="equation-bool-for-int"),
    pytest.param([("Node(void; void)", "Node(boolean f := 2; void)"),
                  ("take . give . Node()", guarded("f", "f"))],
                 ("E_TYPE", "default of 'f' has the wrong type", 7, 14), id="equation-int-for-bool"),
    # Both AEIs start from the same out-of-range default: one report.
    pytest.param([("Node(void; void)", "Node(int(0..3) n := 7; void)"),
                  ("take . give . Node()", guarded("n = 1", "n"))],
                 ("E_RANGE", "default of 'n' is outside int(0..3)", 7, 14), id="equation-out-of-range"),
    # A default read from the AET's parameter is range-checked per AEI.
    pytest.param([("Node_Type(void)", "Node_Type(int(0..3) k)"),
                  ("Node(void; void)", "Node(int(0..3) n := k + 2; void)"),
                  ("take . give . Node()", guarded("n = 3", "n")),
                  ("L : Node_Type()", "L : Node_Type(1)"), ("R : Node_Type()", "R : Node_Type(2)")],
                 ("E_RANGE", "default of 'n' is outside int(0..3)", 7, 14), id="equation-per-aei"),
])
def test_defaults_are_checked_against_their_declared_types(replacements, expected):
    assert errors(deadlock_pair(*replacements)) == [expected]
