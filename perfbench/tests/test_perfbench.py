"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]

import layertrace  # noqa: E402
import padlver  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from padlver import elaborate, parse, pretty_print, validate  # noqa: E402
from padlver.topology import (  # noqa: E402
    verify_deadlock_by_reduction,
    verify_deadlock_direct,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def statuses(text: str, capacity: int, state_limit: int) -> dict[str, str]:
    pipeline = run.Pipeline()
    inp = workloads.Input("test", text, capacity, state_limit, {})
    return {
        route: json.loads(pipeline.check(inp, route))[run.REPORT_KEY[route]]["status"]
        for route in run.ROUTES
    }


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- generated inputs -----------------------------------------------------------


@pytest.mark.parametrize("salt", ["", workloads.salt_for(7)])
def test_generated_star_and_ring_text_validates(salt):
    texts = [workloads.star_text(n, sync, salt) for n in workloads.STAR_SIZES
             for sync in (False, True)]
    texts += [workloads.ring_text(n, salt) for n in workloads.RING_SIZES]
    for text in texts:
        arch = validate(parse(text))
        assert arch.warnings == []
        assert pretty_print(parse(text)) == pretty_print(parse(pretty_print(parse(text))))


def test_frozen_generator_matches_the_soundness_harness():
    from test_random_architectures import random_architecture as harness

    rng = random.Random(workloads.RANDOM_SUITE_SEED)
    expected = []
    for _ in range(workloads.RANDOM_SUITE_SIZE):
        description = harness(rng)
        expected.append((description, rng.randint(1, 2)))
    assert workloads.random_suite_draws() == expected


def test_random_suite_text_is_a_round_trip_fixpoint():
    salt = workloads.salt_for(3)
    for description, _ in workloads.random_suite_draws():
        for variant in (description, workloads.rename_instances(description, salt)):
            text = pretty_print(variant)
            assert pretty_print(parse(text)) == text


def test_text_path_verdicts_match_the_ast_path():
    limit = workloads.RANDOM_SUITE_STATE_LIMIT
    for k, (description, capacity) in enumerate(workloads.random_suite_draws()):
        via_ast = elaborate(validate(description), capacity)
        via_text = elaborate(validate(parse(pretty_print(description))), capacity)
        assert (verify_deadlock_direct(via_text, state_limit=limit).status
                == verify_deadlock_direct(via_ast, state_limit=limit).status), k
        if k < 40:
            assert (verify_deadlock_by_reduction(via_text, state_limit=limit).status
                    == verify_deadlock_by_reduction(via_ast, state_limit=limit).status), k


# -- known answers -----------------------------------------------------------------


def test_fixture_known_answers_hold():
    for inp in workloads.build_inputs("fixtures", seed=0):
        assert statuses(inp.text, inp.capacity, inp.state_limit) == inp.expected, inp.name


def test_small_stars_and_rings_are_deadlock_free_on_both_routes():
    texts = [(workloads.star_text(n, sync, "_q"), capacity)
             for n in (2, 3, 4) for sync in (False, True) for capacity in (1, 3)]
    texts += [(workloads.ring_text(n, "_q"), 1) for n in (3, 4, 5, 6)]
    for text, capacity in texts:
        assert statuses(text, capacity, workloads.STATE_LIMIT) == workloads.FREE


def test_seed_salt_keeps_the_recorded_direct_verdicts():
    salt = workloads.salt_for(11)
    stored = workloads.stored_random_verdicts()
    for k, (description, capacity) in enumerate(workloads.random_suite_draws()):
        text = pretty_print(workloads.rename_instances(description, salt))
        arch = elaborate(validate(parse(text)), capacity)
        status = verify_deadlock_direct(arch, state_limit=workloads.RANDOM_SUITE_STATE_LIMIT).status
        assert status == stored[k]["direct"], k


def test_same_seed_same_inputs_and_every_seed_the_same_set():
    first = workloads.build_inputs("star", seed=5)
    assert first == workloads.build_inputs("star", seed=5)
    other = workloads.build_inputs("star", seed=6)
    assert sorted(i.name for i in first) == sorted(i.name for i in other)


def test_problems_flags_contradictions_and_disagreement():
    inp = workloads.Input("x", "", 1, 1, {"reduce": "deadlock_free", "direct": "deadlock_free"})

    def result(reduce_status, direct_status):
        res = run.Result()
        res.status = {"reduce": [reduce_status], "direct": [direct_status]}
        return res

    assert run.problems(inp, [result("deadlock_free", "deadlock_free")]) == []
    assert run.problems(inp, [result("inconclusive", "deadlock_free")]) == []
    assert run.problems(inp, [result("conditions_failed", "deadlock_free")])
    assert run.problems(inp, [result("deadlock_free", "deadlock")])
    unknown = workloads.Input("y", "", 1, 1, {})
    assert run.problems(unknown, [result("deadlock", "deadlock_free")])
    assert run.problems(unknown, [result("deadlock", "deadlock"), result("inconclusive", "deadlock")])
    raised = result("deadlock", "deadlock")
    raised.errors.append("reduce raised RecursionError")
    assert run.problems(unknown, [raised])


def test_tail_has_ten_values_beyond_it_or_is_the_maximum():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:30]) == (19.0, pytest.approx(66.667, abs=1e-3))
    assert run.tail(values[:20]) == (9.0, 50.0)
    assert run.tail(values[:18]) == (17.0, 100.0)


# -- tracing -------------------------------------------------------------------------


def test_tracer_wraps_every_name_and_restores_them():
    lts = importlib.import_module("padlver.lts")
    topology = importlib.import_module("padlver.topology")
    elab = importlib.import_module("padlver.elaborate")  # padlver.elaborate is the function
    parallel, elaborate_fn = lts.parallel, elab.elaborate
    with layertrace.Tracer() as tracer:
        assert tracer.missing == []
        assert lts.parallel is topology.parallel is elab.parallel is padlver.parallel
        assert lts.parallel.__wrapped__ is parallel
        assert padlver.elaborate is elab.elaborate
        assert elab.elaborate.__wrapped__ is elaborate_fn
    assert lts.parallel is topology.parallel is elab.parallel is padlver.parallel is parallel
    assert padlver.elaborate is elab.elaborate is elaborate_fn


def test_tracer_survives_a_missing_function():
    targets = layertrace.TARGETS + ("lts.no_such_function", "no_such_module.fn")
    tracer = layertrace.Tracer(targets)
    pipeline = run.Pipeline()
    inp = workloads.build_inputs("fixtures", seed=0)[0]
    with tracer:
        tracer.run = (0, "reduce")
        pipeline.check(inp, "reduce")
    assert tracer.missing == ["lts.no_such_function", "no_such_module.fn"]
    spans = tracer.take()
    full = layertrace.layer_metrics(spans, tracer.missing)
    assert set(full) == set(layertrace.LAYER_UNITS)
    # As if a refactor removed saturate: its metrics go, the rest stay.
    without = layertrace.layer_metrics(spans, ["equivalence.saturate"])
    assert "equivalence.saturate_s" not in without
    assert "equivalence.weak_bisim_self_s" not in without
    assert without["parser.parse_s"] == full["parser.parse_s"]


def test_self_time_excludes_traced_children():
    parent = layertrace.Span("a", None, None)
    child = layertrace.Span("b", parent, None)
    parent.duration, child.duration = 1.0, 0.25
    parent.child_time = child.duration
    assert parent.self_time == 0.75


# -- the command -------------------------------------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = run_benchmark(ROOT, "--workload", "fixtures", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared
    printed = {line.split()[2] for line in proc.stdout.splitlines() if line.startswith("metric ")}
    assert set(declared) <= printed


def test_benchmark_json_workloads_are_the_runners():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_benchmark(tmp_path, "--workload", "fixtures", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
