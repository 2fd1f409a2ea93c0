"""Layer spans recorded from outside the program.

`Tracer.install` wraps public functions of the ``padlver`` modules under
every module attribute that refers to them (``topology`` and
``elaborate`` import ``parallel``, ``hide``, ``aei_semantics`` and
others by name, and the package re-exports most of them), and
`Tracer.uninstall` puts the originals back.  Each call becomes a `Span`
with its parent on a span stack, so a span's self time is its duration
minus that of its traced children.  A target that no longer exists is
listed in `Tracer.missing` and the metrics that need it are left out.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

LABEL_OPS = ("lts.hide", "lts.relabel", "lts.resolve")
BUDGET_ERROR = "StateLimitExceeded"  # what saturate raises over its budget
INTEROP_CONDITIONS = ("2a", "2b", "2c")


class Span:
    __slots__ = ("name", "parent", "run", "duration", "child_time", "error", "extra")

    def __init__(self, name: str, parent: Span | None, run: tuple | None):
        self.name = name
        self.parent = parent
        self.run = run  # (input index, route) of the verification that made it
        self.duration = 0.0
        self.child_time = 0.0
        self.error: str | None = None
        self.extra: dict[str, Any] = {}

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


# -- what each traced function records besides its duration ------------------


def _transitions(lts) -> int:
    return sum(len(ts) for ts in lts.trans)


def _observe_parse(span, args, kwargs, result, fn):
    span.extra["bytes"] = len(args[0].encode("utf-8"))


def _observe_elaborate(span, args, kwargs, result, fn):
    span.extra["queues"] = sum(1 for aei in result.aeis.values() if aei.is_queue)


def _observe_states(span, args, kwargs, result, fn):
    span.extra["states"] = result.n_states


def _observe_parallel(span, args, kwargs, result, fn):
    span.extra["states"] = result.n_states
    span.extra["transitions"] = _transitions(result)


def _observe_saturate(span, args, kwargs, result, fn):
    span.extra["states"] = args[0].n_states
    span.extra["transitions"] = _transitions(result)


def _observe_weak_bisim(span, args, kwargs, result, fn):
    span.extra["input_states"] = args[0].n_states + args[1].n_states
    span.extra["blocks"] = result.n_blocks
    span.extra["formula_chars"] = 0 if result.formula is None else len(result.formula.render())


def _observe_check(span, args, kwargs, result, fn):
    span.extra["lhs_states"] = result.lhs_states


def _observe_reduction(span, args, kwargs, result, fn):
    span.extra["interop_decisive"] = sum(
        1 for c in result.conditions
        if c.condition in INTEROP_CONDITIONS and c.holds is not None and c.outcomes
    )


def _observe_direct(span, args, kwargs, result, fn):
    if result.status != "inconclusive":
        span.extra["final_states"] = result.states


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _observe_aei_semantics(span, args, kwargs, result, fn):
    # The architecture and the request, defaults filled in.
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    items = list(bound.arguments.values())[1:]
    span.extra["request"] = (id(args[0]),) + tuple(repr(v) for v in items)


OBSERVERS: dict[str, Callable | None] = {
    "parser.parse": _observe_parse,
    "validate.validate": None,
    "elaborate.elaborate": _observe_elaborate,
    "elaborate.aei_semantics": _observe_aei_semantics,
    "elaborate.composite_semantics": _observe_states,
    "semantics.generate_lts": _observe_states,
    "lts.parallel": _observe_parallel,
    "lts.hide": None,
    "lts.relabel": None,
    "lts.resolve": None,
    "lts.find_deadlocks": None,
    "lts.shortest_trace": None,
    "equivalence.weak_bisim_check": _observe_weak_bisim,
    "equivalence.saturate": _observe_saturate,
    "topology.check_compatibility": _observe_check,
    "topology.check_interoperability": _observe_check,
    "topology.aei_deadlock_free": None,
    "topology.decompose": None,
    "topology.verify_deadlock_by_reduction": _observe_reduction,
    "topology.verify_deadlock_direct": _observe_direct,
    "report.VerificationReport.to_json": None,
}
TARGETS = tuple(OBSERVERS)


def _owner(target: str):
    """(object holding the attribute, attribute name) for a target such
    as ``lts.parallel`` or ``report.VerificationReport.to_json``."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"padlver.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self, targets: Iterable[str] = TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run: tuple | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- patching --------------------------------------------------------------

    def install(self) -> Tracer:
        self.missing = []
        for target in self.targets:
            try:
                owner, attr = _owner(target)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, OBSERVERS.get(target))
            holders = [owner] if inspect.isclass(owner) else [
                mod for name, mod in list(sys.modules.items())
                if (name == "padlver" or name.startswith("padlver.")) and mod is not None
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; recording starts afresh."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: str, fn: Callable, observe: Callable | None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(target, stack[-1] if stack else None, self.run)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.duration = clock() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                spans.append(span)
            if observe is not None:
                try:
                    observe(span, args, kwargs, result, fn)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    pass  # the metric this feeds is left out
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        return traced


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# name -> unit; the order is the order of the printout.
LAYER_UNITS: dict[str, str] = {
    "parser.parse_s": "s",
    "parser.bytes": "B",
    "validate.validate_s": "s",
    "elaborate.elaborate_s": "s",
    "elaborate.queues": "count",
    "elaborate.aei_semantics_calls": "count",
    "elaborate.aei_semantics_distinct": "count",
    "elaborate.aei_semantics_self_s": "s",
    "elaborate.composite_semantics_calls": "count",
    "elaborate.composite_semantics_s": "s",
    "elaborate.composite_states": "count",
    "semantics.generate_lts_calls": "count",
    "semantics.generate_lts_s": "s",
    "semantics.generate_lts_states": "count",
    "lts.parallel_calls": "count",
    "lts.parallel_s": "s",
    "lts.parallel_states": "count",
    "lts.parallel_transitions": "count",
    "lts.direct_state_ratio": "ratio",
    "lts.label_ops_calls": "count",
    "lts.label_ops_s": "s",
    "lts.find_deadlocks_s": "s",
    "lts.shortest_trace_s": "s",
    "equivalence.weak_bisim_calls": "count",
    "equivalence.weak_bisim_s": "s",
    "equivalence.weak_bisim_self_s": "s",
    "equivalence.input_states": "count",
    "equivalence.saturate_s": "s",
    "equivalence.saturate_states": "count",
    "equivalence.saturated_transitions": "count",
    "equivalence.blocks": "count",
    "equivalence.formula_chars": "count",
    "equivalence.budget_exceeded": "count",
    "topology.compat_checks": "count",
    "topology.compat_s": "s",
    "topology.interop_checks": "count",
    "topology.interop_s": "s",
    "topology.interop_decisive_ratio": "ratio",
    "topology.lhs_states_max": "count",
    "topology.isolation_s": "s",
    "topology.decompose_s": "s",
    "report.render_s": "s",
}


def _outermost(spans: list[Span], group: tuple[str, ...]) -> list[Span]:
    """Spans of the group that no other span of the group encloses."""
    out = []
    for span in spans:
        if span.name not in group:
            continue
        parent = span.parent
        while parent is not None and parent.name not in group:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span], missing: Iterable[str] = ()) -> dict[str, float]:
    """Per-layer metrics of one pass.  A metric that needs a missing
    target, or an observation a target no longer supports, is absent."""
    absent = set(missing)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, float] = {}

    def put(metric: str, needs: tuple[str, ...], compute: Callable[[], float]) -> None:
        if absent.intersection(needs):
            return
        try:
            out[metric] = compute()
        except KeyError:
            pass  # an observation is missing

    def calls(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def inclusive(*names: str) -> float:
        return sum(s.duration for s in _outermost(spans, names))

    def extra_sum(name: str, key: str) -> int:
        return sum(s.extra[key] for s in by_name[name] if s.error is None)

    parse, val, elab = "parser.parse", "validate.validate", "elaborate.elaborate"
    aei, comp, gen = "elaborate.aei_semantics", "elaborate.composite_semantics", "semantics.generate_lts"
    par, wb, sat = "lts.parallel", "equivalence.weak_bisim_check", "equivalence.saturate"
    compat, interop = "topology.check_compatibility", "topology.check_interoperability"
    reduction, direct = "topology.verify_deadlock_by_reduction", "topology.verify_deadlock_direct"

    put("parser.parse_s", (parse,), lambda: inclusive(parse))
    put("parser.bytes", (parse,), lambda: extra_sum(parse, "bytes"))
    put("validate.validate_s", (val,), lambda: inclusive(val))
    put("elaborate.elaborate_s", (elab,), lambda: inclusive(elab))
    put("elaborate.queues", (elab,), lambda: extra_sum(elab, "queues"))
    put("elaborate.aei_semantics_calls", (aei,), lambda: calls(aei))
    put("elaborate.aei_semantics_distinct", (aei,),
        lambda: len({(s.run, s.extra["request"]) for s in by_name[aei]}))
    put("elaborate.aei_semantics_self_s", (aei,), lambda: sum(s.self_time for s in by_name[aei]))
    put("elaborate.composite_semantics_calls", (comp,), lambda: calls(comp))
    put("elaborate.composite_semantics_s", (comp,), lambda: inclusive(comp))
    put("elaborate.composite_states", (comp,), lambda: extra_sum(comp, "states"))
    put("semantics.generate_lts_calls", (gen,), lambda: calls(gen))
    put("semantics.generate_lts_s", (gen,), lambda: inclusive(gen))
    put("semantics.generate_lts_states", (gen,), lambda: extra_sum(gen, "states"))
    put("lts.parallel_calls", (par,), lambda: calls(par))
    put("lts.parallel_s", (par,), lambda: inclusive(par))
    put("lts.parallel_states", (par,), lambda: extra_sum(par, "states"))
    put("lts.parallel_transitions", (par,), lambda: extra_sum(par, "transitions"))

    def direct_state_ratio() -> float:
        # Final composite states over the states every parallel call
        # built, on direct-route verifications that concluded.
        final = {s.run: s.extra["final_states"] for s in by_name[direct] if "final_states" in s.extra}
        built = sum(s.extra["states"] for s in by_name[par] if s.run in final and s.error is None)
        return sum(final.values()) / built if built else 1.0

    put("lts.direct_state_ratio", (par, direct), direct_state_ratio)
    put("lts.label_ops_calls", LABEL_OPS, lambda: calls(*LABEL_OPS))
    put("lts.label_ops_s", LABEL_OPS, lambda: inclusive(*LABEL_OPS))
    put("lts.find_deadlocks_s", ("lts.find_deadlocks",), lambda: inclusive("lts.find_deadlocks"))
    put("lts.shortest_trace_s", ("lts.shortest_trace",), lambda: inclusive("lts.shortest_trace"))
    put("equivalence.weak_bisim_calls", (wb,), lambda: calls(wb))
    put("equivalence.weak_bisim_s", (wb,), lambda: inclusive(wb))
    put("equivalence.weak_bisim_self_s", (wb, sat), lambda: sum(s.self_time for s in by_name[wb]))
    put("equivalence.input_states", (wb,),
        lambda: sum(s.extra["input_states"] for s in by_name[wb] if "input_states" in s.extra))
    put("equivalence.saturate_s", (sat,), lambda: inclusive(sat))
    put("equivalence.saturate_states", (sat,), lambda: extra_sum(sat, "states"))
    put("equivalence.saturated_transitions", (sat,), lambda: extra_sum(sat, "transitions"))
    put("equivalence.blocks", (wb,), lambda: extra_sum(wb, "blocks"))
    put("equivalence.formula_chars", (wb,), lambda: extra_sum(wb, "formula_chars"))
    put("equivalence.budget_exceeded", (sat,),
        lambda: sum(1 for s in by_name[sat] if s.error == BUDGET_ERROR))
    put("topology.compat_checks", (compat,), lambda: calls(compat))
    put("topology.compat_s", (compat,), lambda: inclusive(compat))
    put("topology.interop_checks", (interop,), lambda: calls(interop))
    put("topology.interop_s", (interop,), lambda: inclusive(interop))

    def interop_decisive_ratio() -> float:
        checks = calls(interop)
        decisive = sum(s.extra["interop_decisive"] for s in by_name[reduction] if s.error is None)
        return decisive / checks if checks else 0.0

    put("topology.interop_decisive_ratio", (interop, reduction), interop_decisive_ratio)
    put("topology.lhs_states_max", (compat, interop),
        lambda: max((s.extra["lhs_states"] for s in by_name[compat] + by_name[interop]
                     if s.error is None), default=0))
    put("topology.isolation_s", ("topology.aei_deadlock_free",),
        lambda: inclusive("topology.aei_deadlock_free"))
    put("topology.decompose_s", ("topology.decompose",), lambda: inclusive("topology.decompose"))
    put("report.render_s", ("report.VerificationReport.to_json",),
        lambda: inclusive("report.VerificationReport.to_json"))
    return out


def top_level_time(spans: list[Span], route: str) -> float:
    """Time covered by spans with no traced parent, on one route."""
    return sum(s.duration for s in spans if s.parent is None and s.run and s.run[1] == route)
