from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_source, from_traces, load_arch, visible_labels
from test_random_architectures import _SSYNC_HEAVY, _SYNCS, random_architecture
from test_validate import minimal
from padlver import elaborate, pretty_print, validate
from padlver.cli import main
from padlver.lts import DEFAULT_STATE_LIMIT, read_aut, write_aut
from padlver.diagnostics import PadlError
from padlver.parser import parse
from padlver.report import VerificationReport
from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct


GOLDEN = Path(__file__).parent / "golden"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.padl")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -------------------------------------------------------------------------


def test_check_cruise_both_modes_agree(capsys):
    code, out, _ = run(capsys, "check", fixture("cruise_control"), "--mode", "both")
    assert code == 0
    assert "reduction and direct check agree" in out
    assert "conclusion: deadlock_free" in out


def test_check_mutant_fails_with_formula(capsys):
    code, out, _ = run(capsys, "check", fixture("mutant_server_silent"), "--mode", "both")
    assert code == 1
    assert "distinguishing formula" in out
    assert "counterexample trace" in out


def test_check_reduce_only_mutant_claims_no_verdict(capsys):
    code, out, _ = run(capsys, "check", fixture("mutant_detector_halt"))
    assert code == 1
    assert "conclusion: conditions_failed" in out
    assert "direct model check" not in out


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no_such_file.padl")
    assert code == 2
    assert "error" in err


def test_check_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.padl"
    bad.write_text("ARCHI_TYPE ???")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "bad.padl:1:" in err and "error[E_LEX]" in err


@pytest.mark.parametrize("command", [["check"], ["graph"], ["lts", "--aei", "W"]])
def test_validation_error_reports_file_and_position(command, tmp_path, capsys):
    bad = tmp_path / "bad.padl"
    bad.write_text(fixture_source("sulky_receiver").replace("TO R.take", "TO R.nothere"))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"{bad}:32:7: error[E_ATTACH_UNDEF]") and "<input>" not in err


@pytest.mark.parametrize("command", [["check"], ["lts", "--aei", "S"]])
def test_elaboration_error_reports_file_and_position(command, tmp_path, capsys):
    bad = tmp_path / "bad.padl"
    bad.write_text(fixture_source("client_server_sync").replace(
        "receive_request . compute_response . send_response", "send_response . receive_request"))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"{bad}:8:11: error[E_DEP_UNSET]") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["check"], ["lts", "--aei", "L"]])
def test_semantics_error_names_file_and_aei(command, tmp_path, capsys):
    # The bounded counter validates; it overflows only while the
    # AEI's state space is generated.
    bad = tmp_path / "probe.padl"
    bad.write_text(fixture_source("deadlock_pair").replace(
        "Node(void; void)", "Node(int(0..2) n := 0; void)").replace("Node()", "Node(n + 1)"))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"{bad}: error: AEI 'L': value 3 for 'n' of 'Node' is outside int(0..2)\n"


def test_validation_warnings_reach_stderr(tmp_path, capsys):
    # Every interaction is unattached: three W_UNATTACHED warnings,
    # printed as errors are, while the report and exit code stay those
    # of the API.
    path = tmp_path / "loose.padl"
    path.write_text(minimal(attachments="void"))
    validated = validate(parse(path.read_text()))
    expected = "".join(w.render(str(path)) + "\n" for w in validated.warnings)
    assert expected.count("warning[W_UNATTACHED]") == 3
    arch = elaborate(validated, 2)
    report = VerificationReport(architecture=arch.name, mode="both", notion="weak",
                                queue_capacity=2, state_limit=DEFAULT_STATE_LIMIT,
                                with_timings=False)
    report.reduction = verify_deadlock_by_reduction(arch)
    report.direct = verify_deadlock_direct(arch)
    code, out, err = run(capsys, "check", str(path), "--mode", "both", "--format", "json",
                         "--no-timings")
    assert (code, out, err) == (report.exit_code(), report.to_json(), expected)
    for command in (["graph"], ["lts", "--aei", "A_1"]):
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, err) == (0, expected)


def test_check_json_deterministic_without_timings(capsys):
    argv = ("check", fixture("client_server_async"), "--mode", "both",
            "--format", "json", "--no-timings")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["agreement"] is True


@pytest.mark.parametrize("capacity", ["1", "2", "3"])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.padl")))
def test_check_json_matches_golden(name, capacity, capsys):
    # tests/golden/<name>.cap<N>.json holds the output of
    # `padlver check <fixture> --mode both --format json --no-timings
    # --queue-capacity N`; reports must stay byte-identical to it.
    _, out, _ = run(capsys, "check", fixture(name), "--mode", "both", "--format", "json",
                    "--no-timings", "--queue-capacity", capacity)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.cap{capacity}.json").read_bytes()


def test_benchmark_reports_match_golden_digest():
    # tests/golden/report_digest.txt holds the output of
    # `python3 tools/report_digest.py .`: one sha256 per benchmark input
    # and route over its --no-timings JSON and text reports (the fixtures
    # also at tight state limits and under the strict notion), then a total.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "tools" / "report_digest.py"), str(root)],
                          capture_output=True, check=True)
    assert done.stdout == (GOLDEN / "report_digest.txt").read_bytes()


VARIANTS = ("open", "pc", "tc", "pc-wob", "tc-wob")


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.padl")))
def test_lts_output_matches_golden(name, capsys):
    # tests/golden/<name>.lts.txt holds, for every real AEI and variant,
    # a `# AEI VARIANT` line followed by the output of
    # `padlver lts <fixture> --aei AEI --variant VARIANT --queue-capacity 2`.
    chunks = []
    for aei in load_arch(name).real_aeis:
        for variant in VARIANTS:
            code, out, _ = run(capsys, "lts", fixture(name), "--aei", aei,
                               "--variant", variant, "--queue-capacity", "2")
            assert code == 0
            chunks.append(f"# {aei} {variant}\n{out}")
    assert "".join(chunks).encode("utf-8") == (GOLDEN / f"{name}.lts.txt").read_bytes()


def test_check_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    # A crash inside padlver must not read as exit 1, "deadlock found".
    def crash(*args, **kwargs):
        raise RuntimeError("simulated\nfailure")

    monkeypatch.setattr("padlver.cli.parse", crash)
    code, out, err = run(capsys, "check", fixture("deadlock_pair"))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal error (") and err.count("\n") == 1
    assert err == "error: internal error (RuntimeError): simulated failure\n"
    assert "Traceback" not in err


def test_an_internal_value_error_is_an_internal_error(monkeypatch, capsys):
    # A ValueError raised by the engine is a bug, not a usage error.
    def crash(*args, **kwargs):
        raise ValueError("simulated failure")

    monkeypatch.setattr("padlver.cli.verify_deadlock_by_reduction", crash)
    code, out, err = run(capsys, "check", fixture("deadlock_pair"))
    assert code == 4
    assert out == ""
    assert err == "error: internal error (ValueError): simulated failure\n"


def deep_variant(shape: str, depth: int) -> str:
    """deadlock_pair with one construct repeated `depth` times, nested."""
    source = fixture_source("deadlock_pair")
    if shape == "prefix":
        body = " . ".join(["take"] * depth + ["give"]) + " . Node()"
    elif shape == "choice":
        body = "take . give . Node()"
        for _ in range(depth):
            body = "choice { " + body + " }"
    else:
        guard = {
            "parens": "(" * depth + "true" + ")" * depth,
            "right_parens": "1 + (" * depth + "1" + ")" * depth + f" = {depth + 1}",
            "not_parens": "not (" * depth + ("true" if depth % 2 == 0 else "false") + ")" * depth,
            "not": "not " * depth + ("true" if depth % 2 == 0 else "false"),
            "minus": "- " * depth + "1 = " + ("1" if depth % 2 == 0 else "-1"),
            "plus": "+".join(["1"] * (depth + 1)) + f" = {depth + 1}",
            "and": " and ".join(["true"] * (depth + 1)),
            # a chain whose left operand is itself a long chain
            "nested_plus": "(0" + "+1" * depth + ")" + "+1" * depth + f" = {2 * depth}",
        }[shape]
        body = f"choice {{ cond({guard}) -> take . give . Node() }}"
    return source.replace("take . give . Node()", body)


DEEP_SHAPES = ["prefix", "choice", "parens", "right_parens", "not_parens", "not", "minus", "plus",
               "and", "nested_plus"]


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_check_too_deep_input_is_a_coded_error(shape, tmp_path, capsys):
    deep = tmp_path / "deep.padl"
    deep.write_text(deep_variant(shape, 3000))
    code, out, err = run(capsys, "check", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{deep}:8:") and "error[E_DEPTH]" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def deepest_accepted(shape: str) -> int:
    """The most repetitions of shape that parse accepts (below 3000)."""
    lo, hi = 0, 3000
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        try:
            parse(deep_variant(shape, mid))
            lo = mid
        except PadlError as err:
            assert err.codes() == ["E_DEPTH"]
            hi = mid
    return lo


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_check_accepts_the_deepest_nesting_on_both_routes(shape, tmp_path, capsys):
    depth = deepest_accepted(shape)
    # each shape is charged its cost on the stack: a prefix or an
    # operator one level, a choice three, a parenthesis two
    floors = {"choice": 290, "parens": 440, "right_parens": 290, "not_parens": 290,
              "nested_plus": 440}
    assert depth >= floors.get(shape, 890)
    source = tmp_path / "deep.padl"
    source.write_text(deep_variant(shape, depth))
    code, out, err = run(capsys, "check", str(source), "--mode", "both")
    assert (code, err) == (1, "")
    assert "direct model check: deadlock" in out


def test_check_capacity_flag_validated(capsys):
    code, _, err = run(capsys, "check", fixture("cruise_control"),
                       "--queue-capacity", "0")
    assert code == 2


def test_check_state_limit_inconclusive(capsys):
    code, out, _ = run(capsys, "check", fixture("cruise_control"),
                       "--mode", "direct", "--state-limit", "50")
    assert code == 3
    assert "conclusion: inconclusive" in out


# -- lts --------------------------------------------------------------------------


def test_lts_pc_wob_visible_labels(tmp_path, capsys):
    out_path = tmp_path / "s.aut"
    code, _, _ = run(capsys, "lts", fixture("client_server_async"),
                     "--aei", "S", "--variant", "pc-wob", "--out", str(out_path))
    assert code == 0
    lts = read_aut(out_path.read_text())
    labels = {l for l in visible_labels(lts)}
    assert labels == {
        "C_1.send_request#S.receive_request_1",
        "C_2.send_request#S.receive_request_2",
        "S.send_response_1#OAQ_1.arrive",
        "S.send_response_2#OAQ_2.arrive",
    }


def test_lts_open_vs_pc_differ_only_in_hiding(tmp_path, capsys):
    paths = {}
    for variant in ("open", "pc-wob"):
        p = tmp_path / f"{variant}.aut"
        code, _, _ = run(capsys, "lts", fixture("client_server_sync"),
                         "--aei", "C_1", "--variant", variant, "--out", str(p))
        assert code == 0
        paths[variant] = read_aut(p.read_text())
    open_lts, pc_lts = paths["open"], paths["pc-wob"]
    assert open_lts.n_states == pc_lts.n_states
    # same composite labels stay visible; the internal step becomes tau
    assert "C_1.process" in visible_labels(open_lts)
    assert "C_1.process" not in visible_labels(pc_lts)
    assert visible_labels(open_lts) - {"C_1.process"} == visible_labels(pc_lts)


def test_lts_named_buffers_and_dot(tmp_path, capsys):
    aut = tmp_path / "s.aut"
    dot = tmp_path / "s.dot"
    code, _, _ = run(capsys, "lts", fixture("client_server_async"),
                     "--aei", "S", "--variant", "pc", "--buffers", "C_1",
                     "--out", str(aut), "--dot-out", str(dot))
    assert code == 0
    lts = read_aut(aut.read_text())
    labels = visible_labels(lts)
    # only the buffer toward C_1 is present: its depart composite is
    # observable, the one toward C_2 is not
    assert "OAQ_1.depart#C_1.receive_response" in labels
    assert "OAQ_2.depart#C_2.receive_response" not in labels
    text = dot.read_text()
    assert text.startswith("digraph lts {")
    assert "->" in text


def test_lts_rejects_unknown_buffer_or_context(capsys):
    code, _, err = run(capsys, "lts", fixture("client_server_async"),
                       "--aei", "S", "--buffers", "Nope")
    assert code == 2
    code, _, err = run(capsys, "lts", fixture("client_server_async"),
                       "--aei", "S", "--context", "Nope")
    assert code == 2


def test_lts_rejects_implicit_queue_names_in_aei_lists(capsys):
    # OAQ_1 is a queue AEI, not an AEI buffers or context can name
    for flag, what in (("--buffers", "buffer"), ("--context", "context")):
        code, out, err = run(capsys, "lts", fixture("client_server_async"),
                             "--aei", "S", "--variant", "pc", flag, "OAQ_1")
        assert code == 2
        assert out == ""
        assert f"unknown {what} AEIs ['OAQ_1']" in err


def test_lts_buffers_flag_conflicts_with_wob_variants(capsys):
    for variant in ("pc-wob", "tc-wob"):
        code, out, err = run(capsys, "lts", fixture("client_server_async"),
                             "--aei", "S", "--variant", variant, "--buffers", "all")
        assert code == 2
        assert out == ""
        assert "--buffers" in err and f"--variant {variant}" in err
    # without the flag, a variant with buffers still takes them all
    code, out, _ = run(capsys, "lts", fixture("client_server_async"), "--aei", "S", "--variant", "pc")
    assert code == 0
    assert out.startswith("des (0, 108, 45)")


def test_lts_unknown_aei_and_variant(capsys):
    code, _, err = run(capsys, "lts", fixture("client_server_sync"),
                       "--aei", "Nope")
    assert code == 2
    code, _, err = run(capsys, "lts", fixture("client_server_sync"),
                       "--aei", "S", "--variant", "sideways")
    assert code == 2
    assert "sideways" in err


# -- graph -------------------------------------------------------------------------


def test_graph_export(tmp_path, capsys):
    out_path = tmp_path / "cc.dot"
    code, _, _ = run(capsys, "graph", fixture("cruise_control"), "--out", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert "subgraph cluster_0" in dot
    assert dot.count("--") == 5


def test_graph_takes_no_limits(capsys):
    # graph reads neither limit, so it does not accept them.
    with pytest.raises(SystemExit) as exit_:
        main(["graph", fixture("cruise_control"), "--queue-capacity", "2"])
    assert exit_.value.code == 2
    assert "--queue-capacity" in capsys.readouterr().err


# -- equiv -------------------------------------------------------------------------


def test_equiv_self_and_weak_vs_strong(tmp_path, capsys):
    a_tau = tmp_path / "a_tau.aut"
    a = tmp_path / "a.aut"
    a_tau.write_text(write_aut(from_traces(("a", "tau"))))
    a.write_text(write_aut(from_traces(("a",))))

    code, out, _ = run(capsys, "equiv", str(a), str(a))
    assert code == 0 and "equivalent" in out
    code, out, _ = run(capsys, "equiv", str(a_tau), str(a))
    assert code == 0
    code, out, _ = run(capsys, "equiv", str(a_tau), str(a), "--strong")
    assert code == 1
    assert "distinct" in out


def test_equiv_prints_formula_on_distinct(tmp_path, capsys):
    a = tmp_path / "a.aut"
    b = tmp_path / "b.aut"
    a.write_text(write_aut(from_traces(("a",))))
    b.write_text(write_aut(from_traces(("b",))))
    code, out, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 1
    assert "<<a>> tt" in out


def deep_star(sends: int, receives: int) -> str:
    """A sender of `sends` actions attached to a receiver of `receives`,
    both stopping after them."""
    return f"""ARCHI_TYPE Deep_Star(void)
  ARCHI_BEHAVIOR
    ARCHI_ELEM_TYPE Sender_Type(void)
      BEHAVIOR
        Send(void; void) = {"send . " * sends}stop
      INPUT_INTERACTIONS  void
      OUTPUT_INTERACTIONS SYNC UNI send
    ARCHI_ELEM_TYPE Receiver_Type(void)
      BEHAVIOR
        Receive(void; void) = {"receive . " * receives}stop
      INPUT_INTERACTIONS  SYNC UNI receive
      OUTPUT_INTERACTIONS void
  ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES
      C : Sender_Type();
      P : Receiver_Type()
    ARCHI_INTERACTIONS void
    ARCHI_ATTACHMENTS
      FROM C.send TO P.receive
END
"""


def test_check_fails_without_formula_when_too_deep(tmp_path, capsys):
    # The compatibility check separates its sides after 400 refinement
    # rounds, past the rounds a formula is built from.
    source = tmp_path / "deep.padl"
    source.write_text(deep_star(400, 399))
    code, out, err = run(capsys, "check", str(source))
    assert (code, err) == (1, "")
    assert "FAILS" in out and "distinguishing formula" not in out
    code, out, err = run(capsys, "check", str(source), "--format", "json", "--no-timings")
    assert (code, err) == (1, "")
    [condition] = json.loads(out)["reduction"]["conditions"]
    assert condition["holds"] is False
    assert all("distinguishing_formula" not in check for check in condition["checks"])


@pytest.mark.parametrize("strong", [[], ["--strong"]])
def test_equiv_distinct_without_formula_when_too_deep(strong, tmp_path, capsys):
    left, right = tmp_path / "a400.aut", tmp_path / "a401.aut"
    left.write_text(write_aut(from_traces(("a",) * 400)))
    right.write_text(write_aut(from_traces(("a",) * 401)))
    code, out, err = run(capsys, "equiv", str(left), str(right), *strong)
    assert (code, err) == (1, "")
    assert out.startswith("distinct: no formula") and out.count("\n") == 1


def test_equiv_malformed_aut(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("this is not an aut file")
    good = tmp_path / "good.aut"
    good.write_text(write_aut(from_traces(("a",))))
    code, _, err = run(capsys, "equiv", str(bad), str(good))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("text, message", [
    ('des (0, 2, 2)\n(0, "a", 1)\n', "AUT header announces 2 transitions, file has 1"),
    ('des (0, 1, 2)\n(0 "a" 1)\n', "malformed AUT transition: '(0 \"a\" 1)'"),
    ('des (0, 1, 2)\n(0, "a")\n', "malformed AUT transition: '(0, \"a\")'"),
    ('des (0, 1, 2)\n(x, "a", 1)\n', "malformed AUT transition: '(x, \"a\", 1)'"),
    ('des (0, 1, 2)\n(0, "a", 1.5)\n', "malformed AUT transition: '(0, \"a\", 1.5)'"),
    ('des (0, one, 2)\n(0, "a", 1)\n', "malformed AUT header"),
])
def test_equiv_read_errors_name_the_file(side, text, message, tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text(text)
    good = tmp_path / "good.aut"
    good.write_text(write_aut(from_traces(("a",))))
    files = [str(bad), str(good)] if side == "left" else [str(good), str(bad)]
    code, out, err = run(capsys, "equiv", *files)
    assert (code, out, err) == (2, "", f"{bad}: error: {message}\n")


@pytest.mark.parametrize("side", ["left", "right"])
def test_equiv_header_limit_names_the_file(side, tmp_path, capsys):
    huge = tmp_path / "huge.aut"
    huge.write_text(f"des (0, 1, {DEFAULT_STATE_LIMIT + 1})\n(0, \"a\", 1)\n")
    good = tmp_path / "good.aut"
    good.write_text(write_aut(from_traces(("a",))))
    files = [str(huge), str(good)] if side == "left" else [str(good), str(huge)]
    code, out, err = run(capsys, "equiv", *files)
    assert (code, out) == (3, "")
    assert err.startswith(f"{huge}: error: state limit {DEFAULT_STATE_LIMIT} exceeded")


def test_equiv_refuses_a_header_past_the_state_limit(tmp_path, capsys):
    # The header's state count is checked before any state is allocated.
    huge = tmp_path / "huge.aut"
    huge.write_text(f"des (0, 1, {DEFAULT_STATE_LIMIT + 1})\n(0, \"a\", 1)\n")
    good = tmp_path / "good.aut"
    good.write_text(write_aut(from_traces(("a",))))
    started = time.perf_counter()
    code, out, err = run(capsys, "equiv", str(huge), str(good))
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert f"state limit {DEFAULT_STATE_LIMIT} exceeded" in err


_EQUIV_COST = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from padlver.cli import main
started = time.perf_counter()
code = main(["equiv", sys.argv[2], sys.argv[3]])
elapsed = time.perf_counter() - started
print(code, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def equiv_cost(left: Path, right: Path) -> tuple[int, float, float]:
    """`padlver equiv left right` in a fresh interpreter: exit code,
    seconds in `main`, and the process's peak RSS in MB."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _EQUIV_COST, str(src), str(left), str(right)],
                          capture_output=True, text=True, timeout=60, check=True)
    code, seconds, rss_kb = done.stdout.split()[-3:]
    return int(code), float(seconds), int(rss_kb) / 1024


def test_equiv_cost_is_bounded_by_the_file_not_the_header(tmp_path):
    # Only the states reachable from the initial one are built, so a
    # header announcing 100,000 states over one transition costs what a
    # two-state file does.
    small = tmp_path / "small.aut"
    small.write_text('des (0, 1, 2)\n(0, "a", 1)\n')
    announced = tmp_path / "announced.aut"
    announced.write_text('des (0, 1, 100000)\n(0, "a", 1)\n')
    code, _, small_mb = equiv_cost(small, small)
    assert code == 0
    code, seconds, announced_mb = equiv_cost(announced, small)
    assert code == 0
    assert seconds < 0.2
    assert announced_mb < small_mb + 8


# -- unreadable paths ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["check", "{dir}"],
    ["lts", "{dir}", "--aei", "C"],
    ["graph", "{dir}"],
    ["equiv", "{dir}", "{aut}"],
    ["equiv", "{aut}", "{dir}"],
    ["check", "{padl}", "--out", "{dir}"],
    ["lts", "{padl}", "--aei", "C", "--out", "{dir}"],
    ["graph", "{padl}", "--out", "{dir}"],
])
def test_a_directory_path_is_a_usage_error(argv, tmp_path, capsys):
    aut = tmp_path / "a.aut"
    aut.write_text(write_aut(from_traces(("a",))))
    paths = {"dir": str(tmp_path), "aut": str(aut), "padl": fixture("cruise_control")}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"],
    ["lts", "{bad}", "--aei", "C"],
    ["graph", "{bad}"],
    ["equiv", "{bad}", "{aut}"],
    ["equiv", "{aut}", "{bad}"],
])
def test_an_input_that_is_not_utf8_is_a_usage_error(argv, tmp_path, capsys):
    aut = tmp_path / "a.aut"
    aut.write_text(write_aut(from_traces(("a",))))
    bad = tmp_path / "latin1.padl"
    bad.write_bytes(fixture_source("cruise_control").encode("utf-8") + b"// caf\xe9\n")
    paths = {"bad": str(bad), "aut": str(aut)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}: error: 'utf-8' codec can't decode") and err.count("\n") == 1


@pytest.mark.parametrize("argv, marked", [
    (["check", "{padl}", "--mode", "both", "--format", "json", "--no-timings"], "padl"),
    (["lts", "{padl}", "--aei", "C"], "padl"),
    (["graph", "{padl}"], "padl"),
    (["equiv", "{left}", "{right}"], "left"),
    (["equiv", "{left}", "{right}"], "right"),
])
def test_a_byte_order_mark_changes_nothing(argv, marked, tmp_path, capsys):
    # Editors on some systems save UTF-8 with a leading byte-order mark.
    left = tmp_path / "left.aut"
    right = tmp_path / "right.aut"
    left.write_text(write_aut(from_traces(("a", "tau", "b"))))
    right.write_text(write_aut(from_traces(("a", "c"))))
    paths = {"padl": fixture("cruise_control"), "left": str(left), "right": str(right)}
    plain = run(capsys, *(arg.format(**paths) for arg in argv))
    source = Path(paths[marked])
    with_bom = tmp_path / f"bom{source.suffix}"
    with_bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    paths[marked] = str(with_bom)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == plain[:2]
    assert plain[1] and err == ""


def test_random_architectures_end_in_a_documented_exit_code(tmp_path, capsys):
    # The whole pipeline, from printed text to report, over the random
    # harness's draws at small capacities and at state limits from tiny
    # to the default: every run ends in a verdict or "inconclusive",
    # never in a crash or in the two routes disagreeing.
    rng = random.Random(1)
    path = tmp_path / "random.padl"
    limits = (3, 30, 300, 3_000, 30_000, DEFAULT_STATE_LIMIT)
    codes = set()
    for i in range(200):
        description = random_architecture(rng, _SYNCS if i % 2 else _SSYNC_HEAVY)
        path.write_text(pretty_print(description), encoding="utf-8")
        capacity, limit = rng.randint(1, 3), rng.choice(limits)
        code, out, err = run(capsys, "check", str(path), "--mode", "both", "--format", "json",
                             "--no-timings", "--queue-capacity", str(capacity),
                             "--state-limit", str(limit))
        assert code in (0, 1, 3), err
        assert "internal error" not in err
        assert json.loads(out)["conclusion"] != "disagreement", pretty_print(description)
        codes.add(code)
    assert codes == {0, 1, 3}
