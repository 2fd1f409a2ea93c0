"""Digest of what the parser makes of every benchmark input and fixture.

    python3 tools/parse_digest.py ROOT

Imports the ``padlver`` package under ``ROOT/src`` and the benchmark's
inputs from ``ROOT/perfbench/workloads.py``, writing nothing there (no
bytecode either).  A text's outcome is ``repr`` of its parsed
description, which unlike AST equality includes every node's location,
or, when parsing fails, its rendered diagnostics.  One line is printed
per benchmark input at seed 0 and per fixture under ``tests/fixtures``:
the sha256 of its outcome, then its name.  One more line per fixture
digests the outcomes of 400 truncations of it: the first 200 prefixes
and 200 spread evenly over the text.  The last line is the sha256 of
all lines before it.

Run it on two checkouts and ``diff`` the outputs: equal totals mean the
same ASTs, locations and diagnostics.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = ("random-suite", "star", "ring", "fixtures")
SEED = 0  # salts generated instance names
TRUNCATIONS = 200


def load(root: Path):
    """The checkout's benchmark inputs module, and a function giving
    the outcome of parsing one text."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    from padlver import PadlError, parse

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def outcome(text: str, filename: str) -> str:
        try:
            return repr(parse(text, filename=filename))
        except PadlError as err:
            return "\n".join(d.render(err.filename) for d in err.diagnostics)

    return workloads, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout to digest")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads, outcome = load(root)
    lines = []
    for workload in WORKLOADS:
        for inp in sorted(workloads.build_inputs(workload, SEED), key=lambda i: i.name):
            lines.append((outcome(inp.text, inp.name), f"{workload}/{inp.name}"))
    for path in sorted((root / "tests" / "fixtures").glob("*.padl")):
        text = path.read_text(encoding="utf-8")
        lines.append((outcome(text, path.name), f"fixture/{path.name}"))
        cuts = sorted(set(range(TRUNCATIONS))
                      | {len(text) * k // TRUNCATIONS for k in range(TRUNCATIONS)})
        lines.append(("\n".join(f"{cut}: {outcome(text[:cut], path.name)}" for cut in cuts),
                      f"fixture/{path.name} truncated"))
    total = hashlib.sha256()
    for text, name in lines:
        line = f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}\n"
        total.update(line.encode("utf-8"))
        sys.stdout.write(line)
    sys.stdout.write(f"{total.hexdigest()}  total\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
