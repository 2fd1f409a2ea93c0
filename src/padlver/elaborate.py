"""Translation of validated architectures into composable LTSs.

The pipeline mirrors the semantics of the language:

1. per AEI, rewrite or-interactions with at least two attachments
   into indexed fresh uni-interactions (with DEP tracking through the
   set of fresh input interactions in force); the actual parameters
   are bound only where aei_semantics generates the AEI's states;
2. insert one implicit queue AEI per attachment of an asynchronous
   interaction, every input queue (IAQ_n) before every output queue
   (OAQ_n) so that an attachment asynchronous at both ends gains both;
   the queues take over the attachments, and the original interaction
   becomes semi-synchronous (inputs) or synchronous (outputs);
3. group the rewired attachments into families, one fresh composite
   name per family (original dotted names joined by '#', senders
   first), each with the real AEIs that own its ends;
4. assemble per-AEI semantics: behavior with the selected buffers
   composed in cascade order (the input queues of uni-interactions,
   then of and-interactions, then the output queues in the same
   order), relabeled to composite names, then partially or totally
   closed; composite semantics chain the per-AEI parts a caller builds.

Queues are bounded: arrive is enabled only while fewer than the
configured capacity of items are waiting, and the full states are
marked so capacity saturation can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable

from . import model as m
from .diagnostics import Diagnostic, Loc, PadlError, SemanticsError, Severity
from .equivalence import branching_quotient
from .lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    exception_label,
    hide,
    parallel,
    relabel,
    resolve,
    restrict,
)
from .semantics import generate_lts
from .validate import ValidatedArchitecture

QUEUE_ARRIVE = "arrive"
QUEUE_DEPART = "depart"


# ---------------------------------------------------------------------------
# Or-rewrite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrPlan:
    """How one or-interaction of one AEI is rewritten."""

    kind: str  # "choose": pick and record an index | "dep_out": follow one
    count: int
    family: str  # the interaction whose recorded index is used (== name for choose)


def or_rewrite(
    equations: tuple[m.BehaviorEquation, ...],
    attach_counts: dict[str, int],
    dep_pairs: dict[str, str],
    or_interactions: list[str] | tuple[str, ...],
) -> tuple[tuple[m.BehaviorEquation, ...], dict[str, list[str]]]:
    """Rewrite every occurrence of an or-interaction with two or more
    attachments into a choice over indexed fresh uni-interactions.

    attach_counts holds every interaction the AET declares.  A fresh
    name skips those, the behavior's actions and earlier fresh names.

    dep_pairs maps each dependent output to the input it depends on.
    Every other occurrence chooses an index and records it; a dependent
    output takes the index its input recorded.  Equations are
    specialized on the recorded indices they actually read, so an index
    no dependent output reads is never kept, and behaviors that re-read
    the input before every dependent output keep a single copy.

    Returns the rewritten equations (reachable from the first one) and
    the fresh-name table for every rewritten interaction.
    """
    plans: dict[str, OrPlan] = {}
    for name in or_interactions:
        count = attach_counts.get(name, 0)
        if count < 2:
            continue
        if name in dep_pairs:
            plans[name] = OrPlan("dep_out", count, dep_pairs[name])
        else:
            plans[name] = OrPlan("choose", count, name)

    fresh: dict[str, list[str]] = {}
    if not plans:
        return equations, fresh

    by_name = {eq.name: eq for eq in equations}

    # Which recorded families an equation may read before re-recording them.
    reads: dict[str, frozenset[str]] = {name: frozenset() for name in by_name}
    actions: set[str] = set()  # every action of the behavior

    def walk_reads(body: m.ProcessBody, written: frozenset[str]) -> frozenset[str]:
        if isinstance(body, m.Stop):
            return frozenset()
        if isinstance(body, m.Invoke):
            return reads.get(body.equation, frozenset()) - written
        if isinstance(body, m.Prefix):
            actions.add(body.action)
            plan = plans.get(body.action)
            if plan is not None and plan.kind == "choose":
                return walk_reads(body.cont, written | {plan.family})
            acc = walk_reads(body.cont, written)
            if plan is not None and plan.kind == "dep_out" and plan.family not in written:
                acc = acc | {plan.family}
            return acc
        if isinstance(body, m.Choice):
            acc = frozenset()
            for branch in body.branches:
                acc |= walk_reads(branch.body, written)
            return acc
        raise AssertionError(body)

    specialized: dict[tuple[str, tuple[tuple[str, int], ...]], str] = {}
    result: list[m.BehaviorEquation] = []
    taken = set(by_name)

    def specialize(name: str, fi: dict[str, int], loc: Loc) -> str:
        eq = by_name.get(name)
        if eq is None:
            raise PadlError(
                [Diagnostic(Severity.ERROR, "E_UNDEF_EQUATION",
                            f"invocation of unknown equation '{name}'", loc)]
            )
        key_fi = tuple(sorted((f, fi[f]) for f in reads[name] if f in fi))
        key = (name, key_fi)
        if key in specialized:
            return specialized[key]
        if key_fi:
            new_name = _unused(name + "_" + "_".join(f"{f}_{j}" for f, j in key_fi), taken)
        else:
            new_name = name
        specialized[key] = new_name
        placeholder = len(result)
        result.append(eq)  # reserve the slot to keep a stable order
        body = rewrite(eq.body, {f: j for f, j in key_fi})
        result[placeholder] = replace(eq, name=new_name, body=body)
        return new_name

    def rewrite(body: m.ProcessBody, fi: dict[str, int]) -> m.ProcessBody:
        if isinstance(body, m.Stop):
            return body
        if isinstance(body, m.Invoke):
            return replace(body, equation=specialize(body.equation, fi, body.loc))
        if isinstance(body, m.Choice):
            return replace(
                body,
                branches=tuple(
                    replace(branch, body=rewrite(branch.body, fi))
                    for branch in body.branches
                ),
            )
        if isinstance(body, m.Prefix):
            plan = plans.get(body.action)
            if plan is None:
                return replace(body, cont=rewrite(body.cont, fi))
            if plan.kind == "choose":
                branches = []
                for j, copy in enumerate(fresh[body.action], 1):
                    nxt = dict(fi)
                    nxt[plan.family] = j
                    branches.append(m.Branch(None, m.Prefix(copy, rewrite(body.cont, nxt))))
                return m.Choice(tuple(branches), loc=body.loc)
            # dep_out
            j = fi.get(plan.family)
            if j is None:
                raise PadlError(
                    [Diagnostic(
                        Severity.ERROR, "E_DEP_UNSET",
                        f"dependent output '{body.action}' is reachable before "
                        f"'{plan.family}' has recorded an index",
                        body.loc,
                    )]
                )
            return m.Prefix(fresh[body.action][j - 1], rewrite(body.cont, fi), loc=body.loc)
        raise AssertionError(body)

    try:  # the walkers hold their own cells: clearing them breaks the cycles
        changed = True
        while changed:
            changed = False
            for name, eq in by_name.items():
                new = walk_reads(eq.body, frozenset())
                if new != reads[name]:
                    reads[name] = new
                    changed = True
        # Named once walk_reads has seen every action.
        used = set(attach_counts) | actions
        for name, plan in plans.items():
            fresh[name] = [_unused(f"{name}_{j}", used) for j in range(1, plan.count + 1)]
        specialize(equations[0].name, {}, equations[0].loc)
    finally:
        del walk_reads, specialize, rewrite
    return tuple(result), fresh


def _unused(name: str, taken: set[str]) -> str:
    """name, underscores appended until taken lacks it; taken gains it."""
    while name in taken:
        name += "_"
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# Elaborated architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A maximal set of attached interactions sharing one fresh name:
    the two ends of a uni-uni attachment, an and-interaction with all
    its attached uni-interactions, or an originally-asynchronous
    interaction with its queue ends (an internal family).  owners are
    the real AEIs the endpoints belong to, directly or through their
    queues, fixed when elaborate makes the family; an internal family's
    only owner is its internal_owner, the AEI that gained the queues."""

    endpoints: tuple[tuple[str, str], ...]
    owners: frozenset[str]
    internal_owner: str | None = None

    @property
    def composite(self) -> str:
        return "#".join(f"{aei}.{inter}" for aei, inter in self.endpoints)


@dataclass(frozen=True)
class QueueInfo:
    """The attachment an implicit queue AEI buffers.  Queues are named
    IAQ_n and OAQ_n, numbered per kind in creation order."""

    owner: str  # AEI whose asynchronous interaction the queue serves
    kind: str  # "IAQ" | "OAQ"
    interaction: str  # the (rewritten) asynchronous interaction name
    partner: str  # AEI on the far side of the queue


@dataclass
class ElabAei:
    name: str
    equations: tuple[m.BehaviorEquation, ...]
    interactions: dict[str, "ElabInteraction"]
    queue: QueueInfo | None = None
    queues: list[str] = field(default_factory=list)  # its implicit queues, in cascade order

    @property
    def is_queue(self) -> bool:
        return self.queue is not None


@dataclass(frozen=True)
class ElabInteraction:
    name: str
    direction: m.Direction
    multiplicity: m.Multiplicity  # UNI or AND after rewriting
    synchronicity: m.Synchronicity  # SYNC or SSYNC after conversion
    converted_from_async: bool = False


@dataclass
class ElabArchitecture:
    name: str
    capacity: int
    aeis: dict[str, ElabAei]  # real AEIs in declaration order, then queues
    real_aeis: tuple[str, ...]
    families: tuple[Family, ...]
    source: ValidatedArchitecture
    # Read and written only by aei_semantics and aei_alone.  Keys: a
    # normalized request (see aei_semantics); ("generated", AEI, state limit),
    # the AEI's generated behavior relabeled to its internal families;
    # ("queue", queue, state limit), the queue relabeled to its family;
    # and ("resolved", AEI, state limit), aei_alone's system.
    _semantics: dict[tuple, Lts] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def bundle(self, aei: str) -> list[str]:
        """An AEI together with its implicit queue AEIs."""
        return [aei, *self.aeis[aei].queues]


def _queue_aet_equations(capacity: int) -> tuple[m.BehaviorEquation, ...]:
    n = m.Var("n")
    body = m.Choice(
        (
            m.Branch(
                m.Binary("<", n, m.IntLit(capacity)),
                m.Prefix(QUEUE_ARRIVE, m.Invoke("Queue", (m.Binary("+", n, m.IntLit(1)),))),
            ),
            m.Branch(
                m.Binary(">", n, m.IntLit(0)),
                m.Prefix(QUEUE_DEPART, m.Invoke("Queue", (m.Binary("-", n, m.IntLit(1)),))),
            ),
        )
    )
    queue = m.BehaviorEquation(
        "Queue",
        (m.Param("n", m.IntType(0, capacity), m.IntLit(0)),),
        body,
    )
    return (queue,)


def elaborate(arch: ValidatedArchitecture, capacity: int = 2) -> ElabArchitecture:
    """Run or-rewriting and implicit queue insertion over a validated
    architecture, producing the attachment families used by every
    semantics variant."""
    if capacity < 1:
        raise ValueError("queue capacity must be at least 1")
    d = arch.description

    aeis: dict[str, ElabAei] = {}
    # Attachments, rewritten in place as interactions are renamed/rewired,
    # and each endpoint's attachment positions in ascending order.  Every
    # rewrite moves all of an endpoint's attachments to new endpoints
    # (OR copies, queue ends) one each, so `rewire` keeps both current in
    # constant time per attachment.
    attachments: list[tuple[tuple[str, str], tuple[str, str]]] = [
        (att.source, att.target) for att in d.attachments
    ]
    positions: dict[tuple[str, str], list[int]] = {}
    for k, (src, dst) in enumerate(attachments):
        positions.setdefault(src, []).append(k)
        positions.setdefault(dst, []).append(k)

    def rewire(k: int, old: tuple[str, str], new: tuple[str, str]) -> None:
        src, dst = attachments[k]
        attachments[k] = (new, dst) if src == old else (src, new)
        positions[new] = [k]

    for inst in d.instances:
        aet = arch.aets[inst.aet]
        counts: dict[str, int] = {}
        for decl in aet.interactions:
            counts[decl.name] = len(arch.attachments_of.get((inst.name, decl.name), []))
        deps = {
            decl.name: decl.dep_on for decl in aet.interactions if decl.dep_on is not None
        }
        ors = [
            decl.name
            for decl in aet.interactions
            if decl.multiplicity is m.Multiplicity.OR
        ]
        equations, fresh = or_rewrite(aet.equations, counts, deps, ors)

        interactions: dict[str, ElabInteraction] = {}
        for decl in aet.interactions:
            if decl.name in fresh:
                for copy in fresh[decl.name]:
                    interactions[copy] = ElabInteraction(
                        copy, decl.direction, m.Multiplicity.UNI, decl.synchronicity
                    )
            else:
                mult = (
                    m.Multiplicity.AND
                    if decl.multiplicity is m.Multiplicity.AND
                    else m.Multiplicity.UNI
                )
                interactions[decl.name] = ElabInteraction(
                    decl.name, decl.direction, mult, decl.synchronicity
                )
        aeis[inst.name] = ElabAei(inst.name, equations, interactions)

        # Rewire the attachments of rewritten or-interactions.  Indices
        # follow attachment declaration order; a dependent output takes
        # the index of its input's attachment to the same partner AEI.
        for name, copies in fresh.items():
            decl = aet.interaction(name)
            endpoint = (inst.name, name)
            involved = positions.pop(endpoint)
            if decl.dep_on is not None:  # an output: the partner is each attachment's target
                partner_rank: dict[str, int] = {}
                for i, a in enumerate(arch.attachments_of[(inst.name, decl.dep_on)]):
                    partner_rank.setdefault(a.from_aei, i)
                involved.sort(key=lambda k: partner_rank[attachments[k][1][0]])
            for copy_name, k in zip(copies, involved):
                rewire(k, endpoint, (inst.name, copy_name))

    families: list[Family] = []
    queue_equations = _queue_aet_equations(capacity)
    queue_interactions = {
        name: ElabInteraction(name, direction, m.Multiplicity.UNI, m.Synchronicity.SYNC)
        for name, direction in ((QUEUE_ARRIVE, m.Direction.INPUT),
                                (QUEUE_DEPART, m.Direction.OUTPUT))
    }

    def owner(name: str) -> str:
        """The real AEI that an AEI or implicit queue belongs to."""
        info = aeis[name].queue
        return info.owner if info is not None else name

    def add_family(ends: tuple[tuple[str, str], ...], internal_owner: str | None = None) -> None:
        owners = frozenset(owner(x) for x, _ in ends)
        families.append(Family(ends, owners, internal_owner))

    # Queue insertion, one pass per direction: all asynchronous inputs
    # first, then all outputs, so that a fully asynchronous attachment
    # gains both of its buffers (its output queue feeds its input
    # queue).  Inputs become semi-synchronous, outputs synchronous.  A
    # queue's outer end takes over the attachment, its inner end joins
    # the owner's interaction in an internal family.
    for kind, direction, converted, outer, inner_end in (
        ("IAQ", m.Direction.INPUT, m.Synchronicity.SSYNC, QUEUE_ARRIVE, QUEUE_DEPART),
        ("OAQ", m.Direction.OUTPUT, m.Synchronicity.SYNC, QUEUE_DEPART, QUEUE_ARRIVE),
    ):
        incoming = direction is m.Direction.INPUT
        numbers = count(1)
        for aei_name in [inst.name for inst in d.instances]:
            elab = aeis[aei_name]
            for name, inter in list(elab.interactions.items()):
                if inter.synchronicity is not m.Synchronicity.ASYNC or inter.direction is not direction:
                    continue
                endpoint = (aei_name, name)
                inner: list[tuple[str, str]] = []
                for k in positions.pop(endpoint, ()):
                    src, dst = attachments[k]
                    queue = f"{kind}_{next(numbers)}"
                    partner = owner(src[0] if incoming else dst[0])
                    aeis[queue] = ElabAei(queue, queue_equations, dict(queue_interactions),
                                          queue=QueueInfo(aei_name, kind, name, partner))
                    rewire(k, endpoint, (queue, outer))
                    inner.append((queue, inner_end))
                    elab.queues.append(queue)
                if inner:
                    add_family((*inner, endpoint) if incoming else (endpoint, *inner),
                               internal_owner=aei_name)
                elab.interactions[name] = replace(
                    inter, synchronicity=converted, converted_from_async=True
                )

    # Each AEI's queues in cascade order: input queues before output
    # queues, those of uni-interactions before those of and-interactions,
    # each stage in creation order (the sort is stable).
    for inst in d.instances:
        elab = aeis[inst.name]
        elab.queues.sort(key=lambda q: (
            aeis[q].queue.kind == "OAQ",
            elab.interactions[aeis[q].queue.interaction].multiplicity is m.Multiplicity.AND))

    # Group the remaining attachments into external families: one per
    # and-interaction (with all its partners), one per uni-uni pair.
    def multiplicity(endpoint: tuple[str, str]) -> m.Multiplicity:
        return aeis[endpoint[0]].interactions[endpoint[1]].multiplicity

    consumed = [False] * len(attachments)
    for k, (src, dst) in enumerate(attachments):
        if consumed[k]:
            continue
        hub = None
        if multiplicity(src) is m.Multiplicity.AND:
            hub, hub_is_output = src, True
        elif multiplicity(dst) is m.Multiplicity.AND:
            hub, hub_is_output = dst, False
        if hub is None:
            consumed[k] = True
            add_family((src, dst))
            continue
        ends: list[tuple[str, str]] = []
        for i in positions[hub]:
            if not consumed[i]:
                consumed[i] = True
                s, t = attachments[i]
                ends.append(t if hub_is_output else s)
        if hub_is_output:
            add_family((hub, *ends))
        else:
            add_family((*ends, hub))

    return ElabArchitecture(
        name=d.name,
        capacity=capacity,
        aeis=aeis,
        real_aeis=tuple(inst.name for inst in d.instances),
        families=tuple(families),
        source=arch,
    )


# ---------------------------------------------------------------------------
# Name sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NameSets:
    """Per-AEI bookkeeping relative to a context set of AEIs."""

    phi: tuple[tuple[str, str], ...]  # dotted name -> composite, sorted
    oali: frozenset[str]  # composite internal names plus converted-input exceptions
    visible: frozenset[str]  # the V set: phi image union oali

    def phi_map(self) -> dict[str, str]:
        return dict(self.phi)


def build_name_sets(arch: ElabArchitecture, aei: str, context: tuple[str, ...]) -> NameSets:
    members = set(arch.bundle(aei))
    ctx = set(context)
    phi = {f"{x}.{inter}": f.composite for f in arch.families
           if aei in f.owners and (f.owners - {aei}) & ctx
           for x, inter in f.endpoints if x in members}
    oali = {f.composite for f in arch.families if f.internal_owner == aei}
    for name, inter in arch.aeis[aei].interactions.items():
        if inter.converted_from_async and inter.direction is m.Direction.INPUT:
            oali.add(exception_label(f"{aei}.{name}"))
    return NameSets(tuple(sorted(phi.items())), frozenset(oali), frozenset(phi.values()) | oali)


def families_of(arch: ElabArchitecture, aei: str) -> frozenset[str]:
    """Composite names of the families that `aei` owns an end of; a step
    adding `aei` to a composition synchronizes on those shared with it."""
    return frozenset(f.composite for f in arch.families if aei in f.owners)


def h_set(arch: ElabArchitecture, aei: str, others: set[str] | frozenset[str]) -> frozenset[str]:
    """Composite names of the queue-AEI interactions of `aei` attached
    to any of the other AEIs."""
    queues = set(arch.bundle(aei)) - {aei}
    return frozenset(f.composite for f in arch.families
                     if not f.owners.isdisjoint(others) and any(x in queues for x, _ in f.endpoints))


def semisync_names(arch: ElabArchitecture, aei: str) -> frozenset[str]:
    """Composite names of the families in which `aei` has a
    semi-synchronous endpoint: every label its semi-synchronous moves
    can carry in a closed part (a name no family maps is hidden by
    either closure, which makes its moves tau steps)."""
    ssync = {name for name, decl in arch.aeis[aei].interactions.items()
             if decl.synchronicity is m.Synchronicity.SSYNC}
    return frozenset(f.composite for f in arch.families
                     if any(x == aei and inter in ssync for x, inter in f.endpoints))


# ---------------------------------------------------------------------------
# Semantics variants
# ---------------------------------------------------------------------------


def queue_lts(arch: ElabArchitecture, queue_name: str,
              state_limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """The bounded queue behavior, its full states marked."""
    return generate_lts(
        arch.aeis[queue_name].equations,
        {},
        prefix=queue_name,
        state_limit=state_limit,
        mark_when=lambda env: env.get("n") == arch.capacity,
    )


def aei_semantics(
    arch: ElabArchitecture,
    aei: str,
    *,
    context: tuple[str, ...] | None = None,
    closure: str = "pc",
    buffers_for: tuple[str, ...] = (),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Lts:
    """Semantics of a single AEI: or-rewritten behavior, selected
    buffers composed in cascade order (input queues on the left, output
    queues on the right), relabeled to composite names and closed in
    one pass (hide with rename).

    Each request is built once per architecture and the result shared
    (an Lts is immutable).  A request is the AEI, the context as a set,
    the closure, the queues that buffers_for selects and the state
    limit, so a smaller limit raises as it would on a first build; a
    build that raises is not kept.  The AEI's generated behavior and
    each queue are kept too, per state limit, so every request for the
    AEI generates each of them once.  A SemanticsError from the AEI's
    behavior (a value outside its declared range) names the AEI."""
    if context is None:
        context = arch.real_aeis
    elab = arch.aeis[aei]
    if elab.is_queue:
        raise ValueError(f"'{aei}' is an implicit queue AEI")
    if closure not in ("open", "pc", "tc"):
        raise ValueError(f"unknown closure {closure!r}")

    buffers = set(buffers_for)
    queues = [q for q in elab.queues if arch.aeis[q].queue.partner in buffers]
    key = (aei, frozenset(context), closure, tuple(queues), state_limit)
    cached = arch._semantics.get(key)
    if cached is not None:
        return cached

    def generated() -> Lts:
        ssync = frozenset(name for name, inter in elab.interactions.items()
                          if inter.synchronicity is m.Synchronicity.SSYNC)
        try:
            lts = generate_lts(elab.equations, arch.source.actuals[aei], prefix=aei,
                               ssync_actions=ssync, state_limit=state_limit)
        except SemanticsError as exc:
            raise SemanticsError(f"AEI '{aei}': {exc}") from None
        return relabel(lts, internal_map)

    # The AEI's internal families: its own side and each queue's inner
    # end are relabeled to the family's name, the one they synchronize on.
    internal_map: dict[str, str] = {}
    queue_end: dict[str, tuple[str, str]] = {}  # queue -> (inner end, family)
    for f in arch.families:
        if f.internal_owner == aei:
            for x, inter in f.endpoints:
                if x == aei:
                    internal_map[f"{x}.{inter}"] = f.composite
                else:
                    queue_end[x] = (f"{x}.{inter}", f.composite)

    acc = _kept(arch, ("generated", aei, state_limit), generated)
    for queue_name in queues:
        inner, family = queue_end[queue_name]
        q = _kept(arch, ("queue", queue_name, state_limit),
                  lambda: relabel(queue_lts(arch, queue_name, state_limit), {inner: family}))
        if arch.aeis[queue_name].queue.kind == "IAQ":
            acc = parallel(q, acc, {family}, state_limit)
        else:
            acc = parallel(acc, q, {family}, state_limit)

    # Renamed to composite names and closed in one pass.
    sets = build_name_sets(arch, aei, context)
    phi = sets.phi_map()
    if closure == "open":
        acc = relabel(acc, phi)
    else:
        keep = sets.visible if closure == "pc" else sets.visible - sets.oali
        acc = hide(acc, keep_only=keep, rename=phi)
    arch._semantics[key] = acc
    return acc


def _kept(arch: ElabArchitecture, key: tuple, build: Callable[[], Lts]) -> Lts:
    """arch's memo entry for key, built on a miss; a build that raises
    is not kept."""
    lts = arch._semantics.get(key)
    if lts is None:
        lts = arch._semantics[key] = build()
    return lts


def aei_alone(arch: ElabArchitecture, aei: str, state_limit: int) -> Lts:
    """The AEI alone, partially closed and without buffers, resolved:
    what the architectural check compares against and what the
    isolation check searches.  Resolved once per architecture and kept
    in its semantics memo, beside the unresolved request that
    compositions use."""
    return _kept(arch, ("resolved", aei, state_limit), lambda: resolve(
        aei_semantics(arch, aei, context=arch.real_aeis, closure="pc", buffers_for=(),
                      state_limit=state_limit)
    ))


def _reduction_plan(
    arch: ElabArchitecture, members: tuple[str, ...]
) -> list[tuple[frozenset[str], frozenset[str], bool]]:
    """One step for each part after the first of a composition of the
    parts named by members, in order: the names the step synchronizes
    on, `sync`; the names later steps synchronize on, `future`; and
    whether the accumulator may be quotiented after the step.

    sync is the part's families (families_of) shared with the parts
    before it.  future is the names of families with an owner among
    the parts composed so far and an owner among the later parts, so
    the last step's is empty.  The quotient is barred while a later
    part has a semi-synchronous move on a name in future: the
    exception rule of parallel tests that the other side offers
    nothing on the name, a negative premise that branching
    bisimilarity does not preserve."""
    n = len(members)
    families = [families_of(arch, aei) for aei in members]
    # Suffix unions: the families and the semi-synchronous names of the
    # parts after k.
    later = [frozenset()] * n
    later_semisync = [frozenset()] * n
    for k in range(n - 2, -1, -1):
        later[k] = later[k + 1] | families[k + 1]
        later_semisync[k] = later_semisync[k + 1] | semisync_names(arch, members[k + 1])
    plan = []
    composed = families[0]  # the families of the parts composed so far
    for k in range(1, n):
        sync = families[k] & composed
        composed |= families[k]
        future = composed & later[k]
        plan.append((sync, future, future.isdisjoint(later_semisync[k])))
    return plan


def composite_semantics(
    arch: ElabArchitecture,
    members: tuple[str, ...],
    part: Callable[[str], Lts],
    keep: frozenset[str],
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Lts:
    """The members' parts, part(aei) for each, composed left to right
    and restricted to keep: resolve(hide(chain, keep_only=keep)) up to
    weak bisimilarity.  Each part synchronizes with the parts before it
    on the families it shares with them (families_of), and is built
    only once the parts before it are composed.  The caller's part
    chooses each member's closure and buffers.

    The chain is minimized as it grows: each step of _reduction_plan is
    one parallel call that restricts its product in the same canonical
    pass, to keep and the names later steps synchronize on (`future`,
    empty at the last step).  After every step but the last, the
    accumulator is then quotiented by branching bisimilarity where the
    plan allows and no semi-synchronous move is left.  The
    architectural check is the one caller; the direct oracle explores
    the plain product (topology._whole_product)."""
    if not members:
        raise ValueError("no members to compose")
    plan = _reduction_plan(arch, members)
    acc = part(members[0])
    for k, (sync, future, may_quotient) in enumerate(plan, 1):
        acc = parallel(acc, part(members[k]), sync, state_limit, keep=keep, pending=future)
        if k < len(plan) and may_quotient and not acc.has_semisync():
            acc, _ = branching_quotient(acc)
    return acc if plan else restrict(acc, keep)  # a single member
