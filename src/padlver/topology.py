"""Abstract flow graph, star/cycle decomposition, the architectural
checks, and the deadlock-freedom drivers.

The abstract enriched flow graph has one vertex per AEI and an edge
wherever an attachment exists.  An edge lies on a cycle iff it is not a
bridge, and the cyclic unions are the connected components of the edges
that lie on a cycle (intersecting cycles share a union, so the covering
is total); after contracting them, the bridges are grouped greedily
into stars, hub first, which yields the ordered center-to-border pairs
the compatibility condition ranges over.

One architectural check serves every condition: a set of members,
one of them partially closed and the others totally closed, with the
buffers among them, must leave that member's observable behavior
unchanged.  Interoperability runs it over a cyclic union and
compatibility is its two-member case, a star center and one border
AEI.  Every member is closed relative to all AEIs.  For a compatibility
partner, that differs from closing it relative to the star only in the
names of families the center does not own.  Those are never
synchronized on, so hiding them after the interleaving composition
gives the same system as hiding them before; their semi-synchronous
moves resolve to success either way; and the kept set hides them at
the end.

Two drivers are provided: the compositional one evaluates the
compatibility condition on every star pair and the interoperability
conditions on every cyclic union, and only then transfers the verdict
from a single AEI to the whole architecture; the direct one explores
the full composite state space and is used as the cross-validation
oracle.  When the compositional conditions fail, no verdict is claimed.
The direct driver explores the whole product one raw _product step
per AEI and searches its rows as they are explored, neither sorted nor
resolved; its state count is every state explored, exception
continuations that resolution would leave unreachable included.
The compositional driver checks once per twin class: AEIs whose swap
maps the architecture onto itself share their isolation check and
their equivalent compatibility outcomes.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import model as m
from .diagnostics import StateLimitExceeded
from .elaborate import (
    ElabArchitecture,
    aei_alone,
    aei_semantics,
    build_name_sets,
    composite_semantics,
    families_of,
    h_set,
)
from .equivalence import weak_bisim_check
from .lts import (
    DEFAULT_STATE_LIMIT,
    EXCEPTION_SUFFIX,
    TAU,
    Lts,
    Raw,
    _acyclic,
    _canonical,
    _deadlocks,
    _product,
    _trace,
    exception_label,
    find_deadlocks,
    is_exception,
    parallel,  # unused here; perfbench's tracer test still looks it up on this module
    relabel,
    resolve,
)
from .validate import ValidatedArchitecture

# A weak check's saturation budget, in multiples of its state limit:
# the signature entries one weak round may hold (equivalence._weak_signatures).
SATURATION_BUDGET_FACTOR = 8


# ---------------------------------------------------------------------------
# Abstract flow graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractFlowGraph:
    vertices: tuple[str, ...]  # AEIs in declaration order
    edges: tuple[tuple[str, str], ...]  # ordered by declaration index, no duplicates


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


def _bridges(graph: AbstractFlowGraph) -> set[tuple[str, str]]:
    """The edges on no cycle, in both orientations: one iterative
    depth-first search with Tarjan's low-link test (a tree edge (u, v)
    is a bridge iff no back edge from v's subtree reaches u or above)."""
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    bridges: set[tuple[str, str]] = set()
    for root in graph.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work: list[tuple[str, str | None, Iterator[str]]] = [(root, None, iter(adj[root]))]
        while work:
            v, parent, neighbors = work[-1]
            for w in neighbors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    work.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > index[parent]:
                        bridges.update(((parent, v), (v, parent)))
    return bridges


def decompose(graph: AbstractFlowGraph) -> Decomposition:
    """Cyclic unions are the connected components of the edges that lie
    on a cycle (those that are not bridges), members and unions in
    declaration order.  A union's frontier is its members that touch a
    bridge: an edge leaving a union is a bridge, and no bridge joins two
    members of one union.  The bridges are partitioned into stars by repeatedly
    picking the contracted vertex of maximal degree as a center
    (contracted unions first on ties, then declaration order)."""
    order = {v: k for k, v in enumerate(graph.vertices)}
    bridges = _bridges(graph)
    parent = {v: v for v in graph.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    on_cycle: set[str] = set()
    for a, b in graph.edges:
        if (a, b) not in bridges:
            parent[find(a)] = find(b)
            on_cycle.update((a, b))
    members: dict[str, list[str]] = {}
    for v in graph.vertices:
        if v in on_cycle:
            members.setdefault(find(v), []).append(v)
    unions = [tuple(union) for union in members.values()]
    on_bridge = {a for a, _ in bridges}
    frontiers = [tuple(v for v in union if v in on_bridge) for union in unions]

    # Contract each union to one node; nodes sort unions first, then
    # vertices, each in declaration order.  A heap holds (-degree, node)
    # over the bridges not yet in a star; degrees only fall, so an entry
    # whose degree is no longer the node's is stale and skipped.
    node = {v: (1, k) for v, k in order.items()}
    node.update((v, (0, k)) for k, union in enumerate(unions) for v in union)
    incident: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in graph.edges:
        if (a, b) in bridges:
            incident.setdefault(node[a], []).append((a, b))
            incident.setdefault(node[b], []).append((b, a))
    degree = {n: len(ends) for n, ends in incident.items()}
    heap = [(-d, n) for n, d in degree.items()]
    heapq.heapify(heap)
    star_pairs: list[tuple[str, str]] = []  # ordered (center endpoint, border endpoint)
    while heap:
        d, center = heapq.heappop(heap)
        if -d != degree[center]:
            continue
        degree[center] = 0
        for hub, rim in incident[center]:
            far = node[rim]
            if degree[far]:  # far has not been a center: the bridge is in no star yet
                star_pairs.append((hub, rim))
                degree[far] -= 1
                if degree[far]:
                    heapq.heappush(heap, (-degree[far], far))

    stars_by_center: dict[str, list[str]] = {}
    for center, border in star_pairs:
        stars_by_center.setdefault(center, []).append(border)
    stars = tuple(
        Star(center, tuple(sorted(border, key=order.__getitem__)))
        for center, border in sorted(stars_by_center.items(), key=lambda kv: order[kv[0]])
    )
    acyclic = [v for v in graph.vertices if v not in on_cycle or v in on_bridge]
    return Decomposition(tuple(unions), tuple(frontiers), stars, tuple(acyclic))


# ---------------------------------------------------------------------------
# Twins
# ---------------------------------------------------------------------------


def twin_classes(arch: ValidatedArchitecture) -> dict[str, str]:
    """Each AEI's twin class, named by its first member in declaration
    order.  Two AEIs are twins when they have the same AET and actual
    parameters, and swapping their names maps the multiset of
    attachments and the architectural interactions onto themselves.
    Such a swap renames the architecture onto itself, and swaps
    compose, so twin-ness is an equivalence relation and every
    permutation within the classes is a renaming of that kind.

    Candidates are grouped by a signature twins share: the AET, the
    actuals, the AEI's architectural interactions and its attachments
    with its own name blanked.  Each candidate is then confirmed
    against the first member of a class by the exact swap test over
    the two AEIs' own attachments, so the cost stays linear in the
    instances and attachments.  Twins attached to each other have
    different signatures and are missed, which only forgoes sharing."""
    d = arch.description
    archi: dict[str, list[str]] = {}
    for aei, inter in d.archi_interactions:
        archi.setdefault(aei, []).append(inter)

    def attached(aei: str) -> list[m.Attachment]:
        return [att for decl in arch.aet_of(aei).interactions
                for att in arch.attachments_of.get((aei, decl.name), ())]

    def swaps_onto_itself(a: str, b: str) -> bool:
        swap = {a: b, b: a}
        touched = Counter(attached(a))
        touched.update(att for att in attached(b) if a not in (att.from_aei, att.to_aei))
        image = Counter(
            replace(att, from_aei=swap.get(att.from_aei, att.from_aei),
                    to_aei=swap.get(att.to_aei, att.to_aei))
            for att in touched.elements()
        )
        return image == touched

    twin: dict[str, str] = {}
    classes: dict[tuple, list[str]] = {}  # signature -> first members of its classes
    for inst in d.instances:
        aei = inst.name
        ends = sorted(
            ("" if att.from_aei == aei else att.from_aei, att.from_interaction,
             "" if att.to_aei == aei else att.to_aei, att.to_interaction)
            for att in attached(aei)
        )
        signature = (inst.aet, tuple(sorted(arch.actuals[aei].items())),
                     tuple(sorted(archi.get(aei, ()))), tuple(ends))
        firsts = classes.setdefault(signature, [])
        twin[aei] = next((f for f in firsts if swaps_onto_itself(f, aei)), aei)
        if twin[aei] == aei:
            firsts.append(aei)
    return twin


# ---------------------------------------------------------------------------
# The architectural checks
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    """One compatibility/interoperability verdict.  The systems it
    compared are not kept; _check_systems rebuilds them."""

    kind: str  # "compatibility" | "interoperability"
    subject: tuple[str, ...]
    partner: str
    equivalent: bool
    formula_text: str | None
    lhs_states: int
    rhs_states: int
    saturated: bool  # some bounded queue filled up while building the lhs
    time_ms: float


def _check_systems(arch: ElabArchitecture, members: tuple[str, ...], member: str,
                   state_limit: int) -> tuple[Lts, Lts]:
    """The check's two systems, (lhs, rhs).  The lhs composes the
    members with the buffers among them, the member partially closed and
    the others totally closed, all relative to every AEI, restricted to
    the member's visible names less the queue names it shares with the
    others, and minimized as it grows (see composite_semantics).  The rhs
    is the member alone without buffers."""
    context = arch.real_aeis
    others = set(members) - {member}
    keep = build_name_sets(arch, member, context).visible - h_set(arch, member, others)
    def part(aei: str) -> Lts:
        return aei_semantics(arch, aei, context=context, closure="pc" if aei == member else "tc",
                             buffers_for=members, state_limit=state_limit)
    lhs = composite_semantics(arch, members, part, keep, state_limit)
    return lhs, aei_alone(arch, member, state_limit)


def _check(arch: ElabArchitecture, members: tuple[str, ...], member: str,
           state_limit: int) -> CheckOutcome:
    """The one architectural check: do the other members leave the
    member's observable behavior unchanged?  Compares the two systems
    of _check_systems under weak bisimilarity and keeps the answer, the
    formula rendered and the systems' sizes, not the systems."""
    started = time.perf_counter()
    lhs, rhs = _check_systems(arch, members, member, state_limit)
    verdict = weak_bisim_check(lhs, rhs,
                               saturation_budget=SATURATION_BUDGET_FACTOR * state_limit)
    if len(members) == 2:  # a compatibility check names the center and its partner
        (other,) = set(members) - {member}
        kind, subject, partner = "compatibility", (member,), other
    else:
        kind, subject, partner = "interoperability", members, member
    return CheckOutcome(
        kind=kind,
        subject=subject,
        partner=partner,
        equivalent=verdict.equivalent,
        formula_text=None if verdict.formula is None else verdict.formula.render(),
        lhs_states=lhs.n_states,
        rhs_states=rhs.n_states,
        saturated=bool(lhs.marked),
        time_ms=(time.perf_counter() - started) * 1000.0,
    )


def check_compatibility(
    arch: ElabArchitecture,
    center: str,
    partner: str,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> CheckOutcome:
    """Does the border AEI leave the center's observable behavior
    unchanged?  The two-member check (_check): the center, partially
    closed, in parallel with the partner, totally closed, with the
    buffers between them, against the center alone."""
    if not any({center, partner} == {att.from_aei, att.to_aei}
               for att in arch.source.description.attachments):
        raise ValueError(f"{partner} is not attached to {center}")
    return _check(arch, (center, partner), center, state_limit)


def check_interoperability(
    arch: ElabArchitecture,
    cycle: tuple[str, ...],
    member: str,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> CheckOutcome:
    """Does the rest of the cycle leave the member's observable
    behavior unchanged?  The check (_check) over the whole cycle, the
    member partially closed."""
    if member not in cycle:
        raise ValueError(f"{member} is not part of the cycle {cycle}")
    if len(cycle) < 3:
        raise ValueError("a cycle traverses at least three AEIs")
    return _check(arch, tuple(cycle), member, state_limit)


def aei_deadlock_free(
    arch: ElabArchitecture, aei: str, notion: str = "weak",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> bool:
    """Deadlock freedom of the AEI alone (partially closed, without
    buffers)."""
    return not find_deadlocks(aei_alone(arch, aei, state_limit), notion)


def _whole_product(arch: ElabArchitecture, state_limit: int) -> Raw:
    """All AEIs with all their buffers, partially closed, as _product's
    raw rows: one _product step per AEI in real_aeis order, from the
    one-state system without moves, each synchronizing on the families
    the AEI shares with those before it, and none sorted or resolved.
    An AEI's semantics is built only once those before it are composed."""
    everyone = arch.real_aeis
    acc: Raw = ((TAU,), ((),), 0, frozenset())
    composed: frozenset[str] = frozenset()  # the families of the AEIs in acc
    for aei in everyone:
        part = aei_semantics(arch, aei, context=everyone, closure="pc", buffers_for=everyone,
                             state_limit=state_limit)
        families = families_of(arch, aei)
        acc = _product(acc, part, families & composed, state_limit)
        composed |= families
    return acc


def _whole_system(arch: ElabArchitecture, state_limit: int) -> Lts:
    """The whole product (_whole_product) built and resolved."""
    return resolve(_canonical(*_whole_product(arch, state_limit)))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class DirectResult:
    """The direct check's answer.  ``states`` counts every state the
    exploration generated, which includes exception continuations that
    resolution leaves unreachable (_whole_system's n_states)."""

    status: str  # "deadlock_free" | "deadlock" | "inconclusive"
    trace: list[str] | None
    states: int
    time_ms: float
    saturated: bool
    detail: str | None = None


@_acyclic
def verify_deadlock_direct(
    arch: ElabArchitecture,
    notion: str = "weak",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> DirectResult:
    """Whole-system model check: all AEIs with all their buffers,
    partially closed, searched for (weak) deadlocks.  _whole_product's
    rows are searched as they were explored, unsorted and unresolved, by
    the search that find_deadlocks and shortest_trace run on _whole_system."""
    started = time.perf_counter()
    try:
        labels, rows, initial, marked = _whole_product(arch, state_limit)
    except StateLimitExceeded as exc:
        return DirectResult(
            "inconclusive", None, exc.states_seen,
            (time.perf_counter() - started) * 1000.0, False, str(exc),
        )
    dead = _deadlocks(rows, initial, notion)
    elapsed = (time.perf_counter() - started) * 1000.0
    trace = _trace(labels, rows, initial, dead) if dead else None
    status = "deadlock" if dead else "deadlock_free"
    return DirectResult(status, trace, len(rows), elapsed, bool(marked))


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


def _evaluate(
    arch: ElabArchitecture,
    key: Check,
    state_limit: int,
    twin: dict[str, str],
    orbits: dict[tuple[str, str], CheckOutcome],
) -> CheckOutcome | str:
    """One check's outcome, or the message of the limit it hit; a
    compatibility check may take a twin's outcome instead of running.

    A compatibility check's orbit is its AEIs' twin classes.  Checks
    in one orbit are equal up to renaming twins, so the first
    equivalent outcome of an orbit (kept in orbits) stands for the
    rest: its copy names the twin's subject and partner and builds no
    system (_check_systems is not called), and being equivalent it has
    no formula.  A non-equivalent or limited outcome is never shared,
    since its formula names the OR copies of its own partner.
    Interoperability checks are never shared: swapping two members of
    a union reorders the composition, and the reduced lhs_states
    depends on that order."""
    kind, target, partner = key
    started = time.perf_counter()
    orbit = None
    if kind == "compatibility":
        orbit = (twin[target], twin[partner])
        first = orbits.get(orbit)
        if first is not None:
            return replace(first, subject=(target,), partner=partner,
                           time_ms=(time.perf_counter() - started) * 1000.0)
    check = check_compatibility if kind == "compatibility" else check_interoperability
    try:
        result = check(arch, target, partner, state_limit)
    except StateLimitExceeded as exc:
        return str(exc)
    if orbit is not None and result.equivalent:
        orbits[orbit] = result
    return result


@_acyclic
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
    Twins (twin_classes) share their checks: the isolation check runs
    once per twin class, and a compatibility check whose AEIs are twins
    of an equivalent one's takes its outcome (see _evaluate).
    """
    started = time.perf_counter()
    graph = build_flow_graph(arch.source)
    deco = decompose(graph)
    twin = twin_classes(arch.source)
    conditions: list[ConditionRecord] = []
    free: dict[str, bool] = {}
    limited = False

    for aei in arch.real_aeis:
        if twin[aei] != aei:
            if twin[aei] in free:
                free[aei] = free[twin[aei]]
            continue
        try:
            free[aei] = aei_deadlock_free(arch, aei, notion, state_limit)
        except StateLimitExceeded:
            limited = True

    # Each distinct check runs once; a limit is kept as its message
    # only, since the exception's traceback would pin the frames of the
    # construction that hit it.
    memo: dict[Check, CheckOutcome | str] = {}
    orbits: dict[tuple[str, str], CheckOutcome] = {}
    for condition, subject, checks in _condition_plan(deco, free):
        record = ConditionRecord(condition, subject, None)
        for key in checks:
            if key not in memo:
                memo[key] = _evaluate(arch, key, state_limit, twin, orbits)
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
        if label == TAU:
            continue
        if is_exception(label):
            mapped = exception_label(map_part(label[: -len(EXCEPTION_SUFFIX)]))
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
    variant = _whole_system(arch_variant, state_limit)
    original = _whole_system(arch_original, state_limit)
    lifted = extend_rename(variant.labels, rename)
    verdict = weak_bisim_check(relabel(variant, lifted), original,
                               saturation_budget=SATURATION_BUDGET_FACTOR * state_limit)
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
