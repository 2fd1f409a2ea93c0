"""Command-line front door.

Subcommands:
  check  parse, validate, elaborate, and verify deadlock freedom
         (compositional reduction, direct model check, or both)
  lts    write the LTS of one AEI in a chosen semantics variant
  graph  write the abstract enriched flow graph as Graphviz DOT
  equiv  compare two AUT files up to weak (default) or strong
         bisimilarity

Exit codes for check: 0 deadlock-free, 1 deadlock or failed check,
2 usage/parse error, 3 inconclusive (resource limits).  equiv: 0
equivalent, 1 distinct, 2 error.  Any subcommand exits 4 on an
internal error, after a one-line message on stderr.

In a check report each distinct compatibility or interoperability
check runs once and is listed under every condition that uses it
(conditions 2a and 2c can share one), with the time of that single
evaluation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import PadlError, SemanticsError, StateLimitExceeded
from .elaborate import ElabArchitecture, aei_semantics, elaborate
from .equivalence import strong_bisim_check, weak_bisim_check
from .lts import DEFAULT_STATE_LIMIT, read_aut, resolve, write_aut
from .parser import parse
from .report import VerificationReport
from .topology import (
    build_flow_graph,
    decompose,
    to_dot,
    verify_deadlock_by_reduction,
    verify_deadlock_direct,
)
from .validate import validate

USAGE_ERROR = 2
INTERNAL_ERROR = 4


def _load(path: str, capacity: int) -> ElabArchitecture:
    source = Path(path).read_text(encoding="utf-8")
    description = parse(source, filename=path)
    return elaborate(validate(description), capacity)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    arch = _load(args.input, args.queue_capacity)
    report = VerificationReport(
        architecture=arch.name,
        mode=args.mode,
        notion=args.deadlock,
        queue_capacity=args.queue_capacity,
        state_limit=args.state_limit,
        with_timings=not args.no_timings,
    )
    if args.mode in ("reduce", "both"):
        report.reduction = verify_deadlock_by_reduction(
            arch, args.deadlock, args.state_limit
        )
    if args.mode in ("direct", "both"):
        report.direct = verify_deadlock_direct(arch, args.deadlock, args.state_limit)
    text = report.to_json() if args.format == "json" else report.to_text()
    _write_out(text, args.out)
    return report.exit_code()


_VARIANTS = {
    "open": ("open", None),
    "pc": ("pc", None),
    "tc": ("tc", None),
    "pc-wob": ("pc", "wob"),
    "tc-wob": ("tc", "wob"),
}


def _lts_to_dot(lts) -> str:
    lines = ["digraph lts {", f'  "{lts.initial}" [shape=doublecircle];']
    for src, label, dst, exc_label, exc_dst in lts.transition_view():
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        if exc_label is not None:
            lines.append(f'  "{src}" -> "{exc_dst}" [label="{exc_label}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_lts(args: argparse.Namespace) -> int:
    arch = _load(args.input, args.queue_capacity)
    if args.aei not in arch.aeis or arch.aeis[args.aei].is_queue:
        print(f"error: unknown AEI '{args.aei}'", file=sys.stderr)
        return USAGE_ERROR
    if args.variant not in _VARIANTS:
        print(
            f"error: unknown variant '{args.variant}' "
            f"(choose from {', '.join(sorted(_VARIANTS))})",
            file=sys.stderr,
        )
        return USAGE_ERROR
    closure, fixed_buffers = _VARIANTS[args.variant]

    def parse_aei_set(value: str, what: str) -> tuple[str, ...] | None:
        if value in ("all", "wob"):
            return arch.real_aeis if value == "all" else ()
        names = tuple(name.strip() for name in value.split(",") if name.strip())
        unknown = [n for n in names if n not in arch.aeis]
        if unknown:
            print(f"error: unknown {what} AEIs {unknown}", file=sys.stderr)
            return None
        return names

    buffers_for = parse_aei_set(args.buffers, "buffer")
    context = parse_aei_set(args.context, "context")
    if buffers_for is None or context is None:
        return USAGE_ERROR
    if fixed_buffers == "wob":
        buffers_for = ()
    lts = aei_semantics(
        arch,
        args.aei,
        context=context,
        closure=closure,
        buffers_for=buffers_for,
        state_limit=args.state_limit,
    )
    _write_out(write_aut(lts), args.out)
    if args.dot_out:
        Path(args.dot_out).write_text(_lts_to_dot(lts), encoding="utf-8")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    source = Path(args.input).read_text(encoding="utf-8")
    arch = validate(parse(source, filename=args.input))
    graph = build_flow_graph(arch)
    _write_out(to_dot(graph, decompose(graph)), args.out)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    try:
        l1 = resolve(read_aut(Path(args.left).read_text(encoding="utf-8")))
        l2 = resolve(read_aut(Path(args.right).read_text(encoding="utf-8")))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    check = strong_bisim_check if args.strong else weak_bisim_check
    verdict = check(l1, l2)
    if verdict.equivalent:
        print("equivalent")
        return 0
    print(f"distinct: {verdict.formula.render()}")
    return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padlver",
        description="Deadlock-freedom verifier for PADL architectural descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="PADL source file (UTF-8, .padl)")
        p.add_argument("--queue-capacity", type=int, default=2, metavar="N",
                       help="bound for implicit asynchronous queues (default 2)")
        p.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT,
                       metavar="N", help="state-space bound per construction")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    p_check = sub.add_parser("check", help="verify deadlock freedom")
    common(p_check)
    p_check.add_argument("--deadlock", choices=("weak", "strict"), default="weak")
    p_check.add_argument("--mode", choices=("reduce", "direct", "both"), default="reduce")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--no-timings", action="store_true",
                         help="omit timings so reports are byte-reproducible")
    p_check.set_defaults(func=cmd_check)

    p_lts = sub.add_parser("lts", help="export the LTS of one AEI (AUT format)")
    common(p_lts)
    p_lts.add_argument("--aei", required=True, help="AEI name")
    p_lts.add_argument("--variant", default="pc-wob",
                       help="open | pc | tc | pc-wob | tc-wob (default pc-wob)")
    p_lts.add_argument("--buffers", default="all", metavar="all|wob|AEI,...",
                       help="which implicit queues to include (default all)")
    p_lts.add_argument("--context", default="all", metavar="all|AEI,...",
                       help="AEI set the interacting semantics is relative to")
    p_lts.add_argument("--dot-out", metavar="PATH",
                       help="also render the LTS as Graphviz DOT")
    p_lts.set_defaults(func=cmd_lts)

    p_graph = sub.add_parser("graph", help="export the abstract flow graph (DOT)")
    common(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_equiv = sub.add_parser("equiv", help="compare two AUT files")
    p_equiv.add_argument("left")
    p_equiv.add_argument("right")
    p_equiv.add_argument("--strong", action="store_true",
                         help="strong instead of weak bisimilarity")
    p_equiv.set_defaults(func=cmd_equiv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "queue_capacity", 1) < 1 or getattr(args, "state_limit", 1) < 1:
        print("error: --queue-capacity and --state-limit must be at least 1",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PadlError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic.render(exc.filename), file=sys.stderr)
        return USAGE_ERROR
    except (SemanticsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except StateLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
