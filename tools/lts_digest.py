"""Digest of every transition system built for the benchmark's inputs.

    python3 tools/lts_digest.py ROOT

Imports the ``padlver`` package under ``ROOT/src`` and the benchmark's
inputs from ``ROOT/perfbench/workloads.py``, writing nothing there (no
bytecode either).  The inputs are those of the generated workloads at
seed 0 and every fixture under ``tests/fixtures`` at queue capacities 1
to 3.  A system's outcome is ``repr`` of its exact form, ``(labels,
n_states, initial, trans, sorted(marked))``, or the message of the
state limit that stopped it.  Three lines are printed per input, each
the sha256 of a sequence of outcomes, then the input's name and what
was digested:

- ``semantics``: every AEI's ``pc`` and ``tc`` semantics, without
  buffers and with the buffers towards every AEI;
- ``whole``: the whole system the direct check searches, built and
  resolved (the direct check searches the same product's raw rows, so
  its state count also includes exception continuations that
  resolution leaves unreachable);
- ``checks``: the ``lhs`` and ``rhs`` of every check the reduction
  lists, in its order, and the limit message of each condition that
  hit one.  An outcome keeps no system, so the systems are those that
  ``topology._check_systems`` returned for the check during the
  reduction, recorded by a wrapper around it; a compatibility check
  that takes a twin's outcome builds no system and reads ``shared``.

The reports carry only state counts; this digest shows that every
system behind them is unchanged.  The last line is the sha256 of all
lines before it.  Run it on two checkouts and ``diff`` the outputs.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = ("random-suite", "star", "ring")
SEED = 0  # salts generated instance names
CAPACITIES = (1, 2, 3)


def load(root: Path):
    """The checkout's benchmark inputs module, and a function giving
    one architecture's three outcome sequences."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    from padlver import parse, topology, validate
    from padlver.diagnostics import StateLimitExceeded
    from padlver.elaborate import aei_semantics, elaborate
    from padlver.topology import _whole_system, verify_deadlock_by_reduction

    # The systems of each check the reduction builds, by (members, member).
    built: dict[tuple, tuple] = {}
    check_systems = topology._check_systems

    def recorded(arch, members, member, state_limit):
        built[members, member] = check_systems(arch, members, member, state_limit)
        return built[members, member]

    topology._check_systems = recorded

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def form(lts) -> str:
        return repr((lts.labels, lts.n_states, lts.initial, lts.trans, sorted(lts.marked)))

    def outcome(build) -> str:
        try:
            return form(build())
        except StateLimitExceeded as exc:
            return f"limit: {exc}"

    def systems(text: str, name: str, capacity: int, limit: int) -> dict[str, list[str]]:
        arch = elaborate(validate(parse(text, filename=name)), capacity)
        everyone = arch.real_aeis
        semantics = [
            outcome(lambda: aei_semantics(arch, aei, context=everyone, closure=closure,
                                          buffers_for=buffers, state_limit=limit))
            for aei in everyone for closure in ("pc", "tc") for buffers in ((), everyone)
        ]
        whole = [outcome(lambda: _whole_system(arch, limit))]
        checks = []
        built.clear()
        for record in verify_deadlock_by_reduction(arch, "weak", limit).conditions:
            for result in record.outcomes:
                if result.kind == "compatibility":
                    key = ((result.subject[0], result.partner), result.subject[0])
                else:
                    key = (result.subject, result.partner)
                if key in built:
                    checks += [form(lts) for lts in built[key]]
                else:  # a twin's outcome, taken without running
                    checks.append("shared")
            if record.detail is not None:
                checks.append(f"limit: {record.detail}")
        return {"semantics": semantics, "whole": whole, "checks": checks}

    return workloads, systems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout to digest")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads, systems = load(root)
    inputs = []
    for workload in WORKLOADS:
        for inp in sorted(workloads.build_inputs(workload, SEED), key=lambda i: i.name):
            inputs.append((f"{workload}/{inp.name}", inp.text, inp.capacity, inp.state_limit))
    for path in sorted((root / "tests" / "fixtures").glob("*.padl")):
        text = path.read_text(encoding="utf-8")
        for capacity in CAPACITIES:
            inputs.append((f"fixture/{path.name} cap={capacity}", text, capacity,
                           workloads.STATE_LIMIT))
    total = hashlib.sha256()
    for label, text, capacity, limit in inputs:
        for what, outcomes in systems(text, label, capacity, limit).items():
            digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
            line = f"{digest}  {label} {what}\n"
            total.update(line.encode("utf-8"))
            sys.stdout.write(line)
    sys.stdout.write(f"{total.hexdigest()}  total\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
