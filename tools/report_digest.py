"""Digest of every benchmark input's deterministic check reports.

    python3 tools/report_digest.py ROOT

Imports the ``padlver`` package under ``ROOT/src`` and the benchmark's
inputs from ``ROOT/perfbench/workloads.py``, writing nothing there (no
bytecode either).  Each of the inputs of every workload is verified on
both routes, ``reduce`` and ``direct``, as ``padlver check --mode ROUTE
--no-timings`` would, and rendered as a JSON and a text report.  One
line is printed per input and route: the sha256 of its JSON report,
a newline and its text report, then the workload and input names.  The
``fixtures`` inputs then run again at each of the tight state limits in
``LIMITS``, so that the limit messages in the reports are pinned too;
their lines end in ``limit=N`` and the route.  Last, the ``fixtures``
inputs run under the strict deadlock notion, their lines ending in
``notion=strict`` and the route.  The last line is the sha256 of all
lines before it.

Run it on two checkouts and ``diff`` the outputs: equal totals mean
byte-identical reports, and the differing lines name the reports that
changed.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("random-suite", "star", "ring", "fixtures")
ROUTES = ("reduce", "direct")
SEED = 0  # salts generated instance names, so it is part of every report
LIMITS = (8, 20, 60, 200, 1000)  # state limits the fixtures rerun at


def load(root: Path):
    """The checkout's benchmark inputs module, and a function giving
    one input's JSON and text reports on one route."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    from padlver import parse, validate
    from padlver.elaborate import elaborate
    from padlver.report import VerificationReport
    from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def reports(inp, route: str, notion: str = "weak") -> str:
        arch = elaborate(validate(parse(inp.text, filename=inp.name)), inp.capacity)
        report = VerificationReport(
            architecture=arch.name, mode=route, notion=notion,
            queue_capacity=inp.capacity, state_limit=inp.state_limit, with_timings=False,
        )
        if route == "reduce":
            report.reduction = verify_deadlock_by_reduction(arch, notion, inp.state_limit)
        else:
            report.direct = verify_deadlock_direct(arch, notion, inp.state_limit)
        return report.to_json() + "\n" + report.to_text()

    return workloads, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout to digest")
    args = parser.parse_args(argv)
    workloads, reports = load(args.root.resolve())
    total = hashlib.sha256()

    def emit(inp, label: str, notion: str = "weak") -> None:
        for route in ROUTES:
            digest = hashlib.sha256(reports(inp, route, notion).encode("utf-8")).hexdigest()
            line = f"{digest}  {label} {route}\n"
            total.update(line.encode("utf-8"))
            sys.stdout.write(line)

    for workload in WORKLOADS:
        for inp in sorted(workloads.build_inputs(workload, SEED), key=lambda i: i.name):
            emit(inp, f"{workload}/{inp.name}")
    for inp in sorted(workloads.build_inputs("fixtures", SEED), key=lambda i: i.name):
        for limit in LIMITS:
            emit(replace(inp, state_limit=limit), f"fixtures/{inp.name} limit={limit}")
    for inp in sorted(workloads.build_inputs("fixtures", SEED), key=lambda i: i.name):
        emit(inp, f"fixtures/{inp.name} notion=strict", "strict")
    sys.stdout.write(f"{total.hexdigest()}  total\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
