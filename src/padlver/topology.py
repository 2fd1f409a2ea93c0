"""Abstract flow graph, star/cycle decomposition, the architectural
checks, and the deadlock-freedom drivers.

The abstract enriched flow graph has one vertex per AEI and an edge
wherever an attachment exists.  Cyclic unions are its nontrivial
biconnected components (intersecting cycles share a component, so the
covering is total); after contracting them, the remaining bridges are
grouped greedily into stars, hub first, which yields the ordered
center-to-border pairs the compatibility condition ranges over.

Two drivers are provided: the compositional one evaluates the
compatibility condition on every star pair and the interoperability
conditions on every cyclic union, and only then transfers the verdict
from a single AEI to the whole architecture; the direct one explores
the full composite state space and is used as the cross-validation
oracle.  When the compositional conditions fail, no verdict is claimed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .diagnostics import StateLimitExceeded
from .elaborate import (
    ElabArchitecture,
    SemanticsRequest,
    aei_semantics,
    build_name_sets,
    composite_semantics,
    e_set,
    h_set,
    sync_set,
)
from .equivalence import EquivalenceVerdict, weak_bisim_check, weak_bisim_upto_relabeling
from .lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    find_deadlocks,
    hide,
    is_exception,
    parallel,
    resolve,
    shortest_trace,
)
from .validate import ValidatedArchitecture


# ---------------------------------------------------------------------------
# Abstract flow graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractFlowGraph:
    vertices: tuple[str, ...]  # AEIs in declaration order
    edges: tuple[tuple[str, str], ...]  # ordered by declaration index, no duplicates

    def neighbors(self, v: str) -> list[str]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out


def build_flow_graph(arch: ValidatedArchitecture) -> AbstractFlowGraph:
    """Vertices are the declared AEIs (implicit queues are not graph
    vertices); two vertices are linked iff some attachment connects
    them."""
    order = {inst.name: k for k, inst in enumerate(arch.description.instances)}
    seen: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    for att in arch.description.attachments:
        a, b = att.from_aei, att.to_aei
        key = (a, b) if order[a] <= order[b] else (b, a)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return AbstractFlowGraph(tuple(order), tuple(edges))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Star:
    center: str
    border: tuple[str, ...]


@dataclass(frozen=True)
class Decomposition:
    cyclic_unions: tuple[tuple[str, ...], ...]
    frontiers: tuple[tuple[str, ...], ...]  # parallel to cyclic_unions
    stars: tuple[Star, ...]
    acyclic_aeis: tuple[str, ...]  # acyclic portions plus cycle/acyclic intersections

    def union_of(self, aei: str) -> tuple[str, ...] | None:
        for union in self.cyclic_unions:
            if aei in union:
                return union
        return None


def _biconnected_components(graph: AbstractFlowGraph) -> list[list[tuple[str, str]]]:
    """Edge sets of the biconnected components (iterative Hopcroft-Tarjan)."""
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    counter = 0
    stack: list[tuple[str, str]] = []
    components: list[list[tuple[str, str]]] = []

    for root in graph.vertices:
        if root in index:
            continue
        work: list[tuple[str, str | None, int]] = [(root, None, 0)]
        while work:
            v, parent, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if w == parent:
                    continue
                if w not in index:
                    stack.append((v, w))
                    work[-1] = (v, parent, pi)
                    work.append((w, v, 0))
                    advanced = True
                    break
                if index[w] < index[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    comp: list[tuple[str, str]] = []
                    while stack:
                        e = stack.pop()
                        comp.append(e)
                        if e == (u, v):
                            break
                    if comp:
                        components.append(comp)
    return components


def decompose(graph: AbstractFlowGraph) -> Decomposition:
    """Cyclic unions are the biconnected components containing a cycle
    (three or more vertices); the acyclic remainder is partitioned into
    stars by repeatedly picking the contracted vertex of maximal degree
    as a center (supernodes first on ties, then declaration order)."""
    order = {v: k for k, v in enumerate(graph.vertices)}
    union_edges: set[tuple[str, str]] = set()
    cyclic_parts: list[set[str]] = []
    for comp in _biconnected_components(graph):
        members = {v for e in comp for v in e}
        if len(members) >= 3:
            cyclic_parts.append(members)
            union_edges.update(comp)
            union_edges.update((b, a) for a, b in comp)
    # The cyclic union of a vertex is the union of all cycles through
    # it, so components that merely share a vertex still merge.
    merged: list[set[str]] = []
    for part in cyclic_parts:
        group = set(part)
        rest = []
        for existing in merged:
            if existing & group:
                group |= existing
            else:
                rest.append(existing)
        rest.append(group)
        merged = rest
    unions = [tuple(sorted(g, key=order.__getitem__)) for g in merged]
    unions.sort(key=lambda u: order[u[0]])

    member_union: dict[str, int] = {}
    for k, union in enumerate(unions):
        for v in union:
            member_union[v] = k

    frontiers: list[tuple[str, ...]] = []
    for union in unions:
        inside = set(union)
        frontier = [
            v for v in union
            if any((a if b == v else b) not in inside
                   for a, b in graph.edges if v in (a, b))
        ]
        frontiers.append(tuple(frontier))

    # Contract unions; the remaining edges are the bridges.
    def node_of(v: str) -> str:
        k = member_union.get(v)
        return f"@cu{k}" if k is not None else v

    bridges = [
        (a, b) for a, b in graph.edges
        if (a, b) not in union_edges
    ]
    remaining = list(bridges)
    star_pairs: list[tuple[str, str]] = []  # ordered (center endpoint, border endpoint)
    while remaining:
        degree: dict[str, int] = {}
        for a, b in remaining:
            degree[node_of(a)] = degree.get(node_of(a), 0) + 1
            degree[node_of(b)] = degree.get(node_of(b), 0) + 1

        def rank(node: str) -> tuple[int, int, int]:
            is_super = node.startswith("@cu")
            first = (
                min(order[v] for v in unions[int(node[3:])])
                if is_super
                else order[node]
            )
            return (-degree[node], 0 if is_super else 1, first)

        center = min(degree, key=rank)
        taken = [e for e in remaining if node_of(e[0]) == center or node_of(e[1]) == center]
        remaining = [e for e in remaining if e not in taken]
        for a, b in taken:
            if node_of(a) == center:
                star_pairs.append((a, b))
            else:
                star_pairs.append((b, a))

    stars_by_center: dict[str, list[str]] = {}
    for center, border in star_pairs:
        stars_by_center.setdefault(center, []).append(border)
    stars = tuple(
        Star(center, tuple(sorted(border, key=order.__getitem__)))
        for center, border in sorted(stars_by_center.items(), key=lambda kv: order[kv[0]])
    )

    in_union = set(member_union)
    acyclic = [
        v for v in graph.vertices
        if v not in in_union or any(v in f for f in frontiers)
    ]
    return Decomposition(tuple(unions), tuple(frontiers), stars, tuple(acyclic))


# ---------------------------------------------------------------------------
# The architectural checks
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    """One compatibility/interoperability verdict with its evidence."""

    kind: str  # "compatibility" | "interoperability"
    subject: tuple[str, ...]
    partner: str
    equivalent: bool
    formula_text: str | None
    lhs_states: int
    rhs_states: int
    saturated: bool  # some bounded queue filled up while building the lhs
    time_ms: float
    verdict: EquivalenceVerdict | None = field(default=None, repr=False)
    lhs: Lts | None = field(default=None, repr=False)
    rhs: Lts | None = field(default=None, repr=False)


def _border(arch: ElabArchitecture, aei: str) -> tuple[str, ...]:
    graph = build_flow_graph(arch.source)
    return tuple(graph.neighbors(aei))


def check_compatibility(
    arch: ElabArchitecture,
    center: str,
    partner: str,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> CheckOutcome:
    """Does the border AEI leave the center's observable behavior
    unchanged?  Compares the center (partially closed, with only the
    buffers toward the partner) in parallel with the partner (totally
    closed relative to the star) against the center alone without
    buffers, after hiding the queue names and exceptions shared by the
    pair."""
    border = _border(arch, center)
    if partner not in border:
        raise ValueError(f"{partner} is not attached to {center}")
    started = time.perf_counter()
    context = arch.real_aeis
    star_context = tuple(dict.fromkeys((center,) + border))
    lhs_left = aei_semantics(
        arch, center, context=context, closure="pc", buffers_for=(partner,),
        state_limit=state_limit,
    )
    lhs_right = aei_semantics(
        arch, partner, context=star_context, closure="tc", buffers_for=(center,),
        state_limit=state_limit,
    )
    sync = sync_set(arch, center, partner)
    hidden = h_set(arch, center, {partner}) | e_set(arch, center, {partner})
    lhs = parallel(lhs_left, lhs_right, sync, state_limit)
    if hidden:
        lhs = hide(lhs, hide_set=hidden)
    lhs = resolve(lhs)
    rhs = resolve(
        aei_semantics(arch, center, context=context, closure="pc", buffers_for=(),
                      state_limit=state_limit)
    )
    verdict = weak_bisim_check(lhs, rhs, saturation_budget=8 * state_limit)
    return CheckOutcome(
        kind="compatibility",
        subject=(center,),
        partner=partner,
        equivalent=verdict.equivalent,
        formula_text=None if verdict.formula is None else verdict.formula.render(),
        lhs_states=lhs.n_states,
        rhs_states=rhs.n_states,
        saturated=bool(lhs.marked),
        time_ms=(time.perf_counter() - started) * 1000.0,
        verdict=verdict,
        lhs=lhs,
        rhs=rhs,
    )


def check_interoperability(
    arch: ElabArchitecture,
    cycle: tuple[str, ...],
    member: str,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> CheckOutcome:
    """Does the rest of the cycle leave the member's observable
    behavior unchanged?  Compares the whole cycle (totally closed with
    its buffers, the member partially closed) restricted to the
    member's visibility set against the member alone without
    buffers."""
    if member not in cycle:
        raise ValueError(f"{member} is not part of the cycle {cycle}")
    if len(cycle) < 3:
        raise ValueError("a cycle traverses at least three AEIs")
    started = time.perf_counter()
    context = arch.real_aeis
    lhs = composite_semantics(
        arch,
        SemanticsRequest(
            subject=tuple(cycle),
            context=context,
            closure="tc",
            buffers_for=tuple(cycle),
            totally_closed_up_to=(member,),
        ),
        state_limit,
    )
    visible = build_name_sets(arch, member, context).visible
    lhs = hide(lhs, keep_only=visible)
    others = set(cycle) - {member}
    hidden = h_set(arch, member, others) | e_set(arch, member, others)
    if hidden:
        lhs = hide(lhs, hide_set=hidden)
    lhs = resolve(lhs)
    rhs = resolve(
        aei_semantics(arch, member, context=context, closure="pc", buffers_for=(),
                      state_limit=state_limit)
    )
    verdict = weak_bisim_check(lhs, rhs, saturation_budget=8 * state_limit)
    return CheckOutcome(
        kind="interoperability",
        subject=tuple(cycle),
        partner=member,
        equivalent=verdict.equivalent,
        formula_text=None if verdict.formula is None else verdict.formula.render(),
        lhs_states=lhs.n_states,
        rhs_states=rhs.n_states,
        saturated=bool(lhs.marked),
        time_ms=(time.perf_counter() - started) * 1000.0,
        verdict=verdict,
        lhs=lhs,
        rhs=rhs,
    )


def aei_deadlock_free(
    arch: ElabArchitecture, aei: str, notion: str = "weak",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> tuple[bool, int]:
    """Deadlock freedom of the AEI alone (partially closed, without
    buffers); returns (verdict, state count)."""
    lts = resolve(
        aei_semantics(arch, aei, context=arch.real_aeis, closure="pc", buffers_for=(),
                      state_limit=state_limit)
    )
    return (not find_deadlocks(lts, notion), lts.n_states)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class DirectResult:
    status: str  # "deadlock_free" | "deadlock" | "inconclusive"
    trace: list[str] | None
    states: int
    time_ms: float
    saturated: bool
    detail: str | None = None


def verify_deadlock_direct(
    arch: ElabArchitecture,
    notion: str = "weak",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> DirectResult:
    """Whole-system model check: all AEIs with all their buffers,
    partially closed, searched for (weak) deadlocks."""
    started = time.perf_counter()
    try:
        full = composite_semantics(
            arch,
            SemanticsRequest(
                subject=arch.real_aeis,
                context=arch.real_aeis,
                closure="pc",
                buffers_for=arch.real_aeis,
            ),
            state_limit,
        )
    except StateLimitExceeded as exc:
        return DirectResult(
            "inconclusive", None, exc.states_seen,
            (time.perf_counter() - started) * 1000.0, False, str(exc),
        )
    full = resolve(full)
    dead = find_deadlocks(full, notion)
    elapsed = (time.perf_counter() - started) * 1000.0
    if dead:
        trace = shortest_trace(full, dead)
        return DirectResult("deadlock", trace, full.n_states, elapsed, bool(full.marked))
    return DirectResult("deadlock_free", None, full.n_states, elapsed, bool(full.marked))


@dataclass
class ConditionRecord:
    condition: str  # "1", "1r", "2a", "2b", "2c"
    subject: tuple[str, ...]
    holds: bool | None  # None when a resource limit prevented evaluation
    outcomes: list[CheckOutcome] = field(default_factory=list)
    detail: str | None = None


@dataclass
class ReductionResult:
    status: str  # "deadlock_free" | "deadlock" | "conditions_failed" | "inconclusive"
    conditions: list[ConditionRecord]
    aei_deadlock_free: dict[str, bool]
    witness: str | None  # AEI whose deadlock freedom transfers to the whole
    decomposition: Decomposition
    time_ms: float

    @property
    def all_conditions_hold(self) -> bool:
        return all(c.holds for c in self.conditions)


# A check is (kind, subject, partner): ("compatibility", center, partner)
# or ("interoperability", union, member).
Check = tuple[str, str | tuple[str, ...], str]


def _condition_plan(
    deco: Decomposition, free: dict[str, bool]
) -> list[tuple[str, tuple[str, ...], list[Check]]]:
    """Every condition of the reduction, in report order, as
    (condition, subject, candidate checks); a condition holds when one
    of its candidates is equivalent (see verify_deadlock_by_reduction)."""
    plan: list[tuple[str, tuple[str, ...], list[Check]]] = []
    # Condition 1 over the star pairs, skipping partners inside the
    # center's own cyclic union.
    for star in deco.stars:
        union = set(deco.union_of(star.center) or ())
        partners = [p for p in star.border if p not in union]
        for partner in partners:
            plan.append(("1", (star.center, partner),
                         [("compatibility", star.center, partner)]))
        # When the center does not satisfy deadlock freedom on its own,
        # the verdict can only transfer from a border AEI that does, and
        # that transfer additionally needs the border-to-center
        # compatibility; require it for at least one such border.
        if free.get(star.center) is False:
            rescuers = [p for p in partners if free.get(p, False)]
            if rescuers:
                plan.append(("1r", (star.center,) + tuple(rescuers),
                             [("compatibility", p, star.center) for p in rescuers]))

    for union, frontier in zip(deco.cyclic_unions, deco.frontiers):
        if not frontier:
            plan.append(("2a", union, [("interoperability", union, m) for m in union]))
        for member in frontier:
            plan.append(("2b", union, [("interoperability", union, member)]))
        # Condition 2c: when no frontier member is deadlock free on its
        # own (vacuously so for an empty frontier) but some other member
        # is, at least one such member must interoperate, otherwise the
        # existential verdict transfer has no anchor.
        frontier_free = any(free.get(m, False) for m in frontier)
        interior = [m for m in union if m not in frontier and free.get(m, False)]
        if not frontier_free and interior:
            plan.append(("2c", union, [("interoperability", union, m) for m in interior]))
    return plan


def verify_deadlock_by_reduction(
    arch: ElabArchitecture,
    notion: str = "weak",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ReductionResult:
    """Topological-reduction driver.

    Condition 1: every star center is compatible with every border AEI
    outside its cyclic union; additionally, when the center is not
    deadlock free on its own but some border AEI is, at least one such
    border must be compatible with the center in turn (condition 1r:
    that reverse direction is exactly what lets the verdict transfer
    from the border).  Condition 2 per cyclic union: with an empty
    frontier some member must interoperate (2a); otherwise every
    frontier member must (2b); and if no frontier member is deadlock
    free by itself while some interior member is, such an interior
    member must interoperate too (2c).  When every condition holds, the
    architecture is deadlock free iff some AEI is on its own; when a
    condition fails, no verdict is claimed.

    Each distinct check runs at most once per call, and a check that
    several conditions share (2a and 2c can) is listed under each.
    """
    started = time.perf_counter()
    graph = build_flow_graph(arch.source)
    deco = decompose(graph)
    conditions: list[ConditionRecord] = []
    free: dict[str, bool] = {}
    limited = False

    for aei in arch.real_aeis:
        try:
            free[aei], _ = aei_deadlock_free(arch, aei, notion, state_limit)
        except StateLimitExceeded:
            limited = True

    # Each distinct check runs once; a limit is kept as its message
    # only, since the exception's traceback would pin the frames of the
    # construction that hit it.
    memo: dict[Check, CheckOutcome | str] = {}
    for condition, subject, checks in _condition_plan(deco, free):
        record = ConditionRecord(condition, subject, None)
        for key in checks:
            if key not in memo:
                kind, target, partner = key
                check = (check_compatibility if kind == "compatibility"
                         else check_interoperability)
                try:
                    memo[key] = check(arch, target, partner, state_limit)
                except StateLimitExceeded as exc:
                    memo[key] = str(exc)
            result = memo[key]
            if isinstance(result, str):
                record.detail = result
                continue
            record.outcomes.append(result)
            if result.equivalent:
                record.holds = True
                break
        else:
            if record.outcomes and record.detail is None:
                record.holds = False
        limited = limited or record.detail is not None
        conditions.append(record)

    elapsed = (time.perf_counter() - started) * 1000.0
    failed = [c for c in conditions if c.holds is False]
    unknown = [c for c in conditions if c.holds is None]
    if failed:
        status = "conditions_failed"
        witness = None
    elif unknown or limited or len(free) < len(arch.real_aeis):
        status = "inconclusive"
        witness = None
    else:
        witness = next((aei for aei in arch.real_aeis if free[aei]), None)
        status = "deadlock_free" if witness is not None else "deadlock"
    return ReductionResult(status, conditions, free, witness, deco, elapsed)


# ---------------------------------------------------------------------------
# Behavioral conformity
# ---------------------------------------------------------------------------


def extend_rename(labels: tuple[str, ...], rename: dict[str, str]) -> dict[str, str]:
    """Lift a map over dotted interaction names to composite and
    exception labels, componentwise over '#'."""
    def map_part(part: str) -> str:
        return rename.get(part, part)

    out: dict[str, str] = {}
    for label in labels:
        if label == "tau":
            continue
        if is_exception(label):
            base = label[: -len("_exception")]
            mapped = map_part(base) + "_exception"
        else:
            mapped = "#".join(map_part(p) for p in label.split("#"))
        if mapped != label:
            out[label] = mapped
    return out


@dataclass
class ConformityResult:
    conformant: bool
    formula_text: str | None
    states: tuple[int, int]
    time_ms: float


def check_behavioral_conformity(
    arch_variant: ElabArchitecture,
    arch_original: ElabArchitecture,
    rename: dict[str, str],
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ConformityResult:
    """Strict behavioral conformity: the variant's whole-architecture
    semantics is weakly bisimilar to the original's up to the injective
    relabeling that matches local interactions."""
    started = time.perf_counter()

    def full(arch: ElabArchitecture) -> Lts:
        return resolve(
            composite_semantics(
                arch,
                SemanticsRequest(
                    subject=arch.real_aeis,
                    context=arch.real_aeis,
                    closure="pc",
                    buffers_for=arch.real_aeis,
                ),
                state_limit,
            )
        )

    variant = full(arch_variant)
    original = full(arch_original)
    lifted = extend_rename(variant.labels, rename)
    verdict = weak_bisim_upto_relabeling(
        variant, original, lifted, saturation_budget=8 * state_limit
    )
    return ConformityResult(
        conformant=verdict.equivalent,
        formula_text=None if verdict.formula is None else verdict.formula.render(),
        states=(variant.n_states, original.n_states),
        time_ms=(time.perf_counter() - started) * 1000.0,
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(graph: AbstractFlowGraph, deco: Decomposition | None = None) -> str:
    """Graphviz rendering of the abstract enriched flow graph with
    cyclic unions as clusters and frontier members doubly circled."""
    lines = ["graph architecture {", "  node [shape=circle];"]
    in_union: set[str] = set()
    if deco is not None:
        for k, (union, frontier) in enumerate(zip(deco.cyclic_unions, deco.frontiers)):
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append(f'    label="cyclic union {k + 1}";')
            for v in union:
                extra = " [peripheries=2]" if v in frontier else ""
                lines.append(f'    "{v}"{extra};')
                in_union.add(v)
            lines.append("  }")
    for v in graph.vertices:
        if v not in in_union:
            lines.append(f'  "{v}";')
    for a, b in graph.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
