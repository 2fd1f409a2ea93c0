from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_source
from padlver.cli import main
from padlver.lts import read_aut


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


def test_check_internal_error_has_its_own_exit_code(tmp_path, capsys):
    # A 3000-action prefix chain exhausts the recursive-descent parser;
    # the crash must not read as exit 1, "deadlock found".
    chain = " . ".join(["take"] * 3000)
    deep = tmp_path / "deep.padl"
    deep.write_text(fixture_source("deadlock_pair").replace("take . give", chain + " . give"))
    code, out, err = run(capsys, "check", str(deep))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal error (") and err.count("\n") == 1
    assert "Traceback" not in err


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
    labels = {l for l in lts.visible_labels()}
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
    assert "C_1.process" in open_lts.visible_labels()
    assert "C_1.process" not in pc_lts.visible_labels()
    assert open_lts.visible_labels() - {"C_1.process"} == pc_lts.visible_labels()


def test_lts_named_buffers_and_dot(tmp_path, capsys):
    aut = tmp_path / "s.aut"
    dot = tmp_path / "s.dot"
    code, _, _ = run(capsys, "lts", fixture("client_server_async"),
                     "--aei", "S", "--variant", "pc", "--buffers", "C_1",
                     "--out", str(aut), "--dot-out", str(dot))
    assert code == 0
    lts = read_aut(aut.read_text())
    labels = lts.visible_labels()
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


# -- equiv -------------------------------------------------------------------------


def test_equiv_self_and_weak_vs_strong(tmp_path, capsys):
    from padlver.lts import from_traces, write_aut

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
    from padlver.lts import from_traces, write_aut

    a = tmp_path / "a.aut"
    b = tmp_path / "b.aut"
    a.write_text(write_aut(from_traces(("a",))))
    b.write_text(write_aut(from_traces(("b",))))
    code, out, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 1
    assert "<<a>> tt" in out


def test_equiv_malformed_aut(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("this is not an aut file")
    good = tmp_path / "good.aut"
    from padlver.lts import from_traces, write_aut

    good.write_text(write_aut(from_traces(("a",))))
    code, _, err = run(capsys, "equiv", str(bad), str(good))
    assert code == 2
    assert "error" in err
