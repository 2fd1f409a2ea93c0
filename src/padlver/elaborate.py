"""Translation of validated architectures into composable LTSs.

The pipeline mirrors the semantics of the language:

1. per AEI, substitute actual parameters and rewrite or-interactions
   with at least two attachments into indexed fresh uni-interactions
   (with DEP tracking through the set of fresh input interactions in
   force);
2. insert one implicit queue AEI per asynchronous uni-interaction
   attachment (input queues IAQ_n, output queues OAQ_n), re-attaching
   senders and receivers and converting the original interaction
   (inputs become semi-synchronous, outputs synchronous);
3. group the rewired attachments into families, one fresh composite
   name per family (original dotted names joined by '#', senders
   first);
4. assemble per-AEI and composite semantics: behavior with the selected
   buffers composed in (input queues first, then output queues),
   relabeled to composite names, then partially or totally closed.

Queues are bounded: arrive is enabled only while fewer than the
configured capacity of items are waiting, and the full states are
marked so capacity saturation can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import model as m
from .diagnostics import Diagnostic, Loc, PadlError, Severity
from .lts import DEFAULT_STATE_LIMIT, Lts, exception_label, hide, parallel, relabel
from .semantics import Value, generate_lts
from .validate import ValidatedArchitecture, eval_const

QUEUE_ARRIVE = "arrive"
QUEUE_DEPART = "depart"


# ---------------------------------------------------------------------------
# Or-rewrite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrPlan:
    """How one or-interaction of one AEI is rewritten."""

    kind: str  # "plain" | "dep_in" | "dep_out"
    count: int
    family: str  # the governing input interaction (== name for dep_in)


def or_rewrite(
    equations: tuple[m.BehaviorEquation, ...],
    attach_counts: dict[str, int],
    dep_pairs: dict[str, str],
    or_interactions: list[str] | tuple[str, ...],
) -> tuple[tuple[m.BehaviorEquation, ...], dict[str, list[str]]]:
    """Rewrite every occurrence of an or-interaction with two or more
    attachments into a choice over indexed fresh uni-interactions.

    dep_pairs maps each dependent output to the input it depends on;
    the chosen input index is recorded and forces the index of the
    dependent output.  Equations are specialized on the recorded
    indices they actually read, so behaviors that re-read the input
    before every dependent output keep a single copy.

    Returns the rewritten equations (reachable from the first one) and
    the fresh-name table for every rewritten interaction.
    """
    plans: dict[str, OrPlan] = {}
    dependents: dict[str, str] = dict(dep_pairs)
    depended_on = set(dependents.values())
    for name in or_interactions:
        count = attach_counts.get(name, 0)
        if count < 2:
            continue
        if name in dependents:
            plans[name] = OrPlan("dep_out", count, dependents[name])
        elif name in depended_on:
            plans[name] = OrPlan("dep_in", count, name)
        else:
            plans[name] = OrPlan("plain", count, name)

    fresh = {
        name: [f"{name}_{j}" for j in range(1, plan.count + 1)]
        for name, plan in plans.items()
    }
    if not plans:
        return equations, fresh

    by_name = {eq.name: eq for eq in equations}

    # Which recorded families an equation may read before re-recording them.
    reads: dict[str, frozenset[str]] = {name: frozenset() for name in by_name}

    def walk_reads(body: m.ProcessBody, written: frozenset[str]) -> frozenset[str]:
        if isinstance(body, m.Stop):
            return frozenset()
        if isinstance(body, m.Invoke):
            return reads.get(body.equation, frozenset()) - written
        if isinstance(body, m.Prefix):
            plan = plans.get(body.action)
            if plan is not None and plan.kind == "dep_in":
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

    changed = True
    while changed:
        changed = False
        for name, eq in by_name.items():
            new = walk_reads(eq.body, frozenset())
            if new != reads[name]:
                reads[name] = new
                changed = True

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
            new_name = name + "_" + "_".join(f"{f}_{j}" for f, j in key_fi)
            while new_name in taken:
                new_name += "_"
            taken.add(new_name)
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
            if plan.kind == "plain":
                return m.Choice(
                    tuple(
                        m.Branch(None, m.Prefix(f"{body.action}_{j}", rewrite(body.cont, fi)))
                        for j in range(1, plan.count + 1)
                    ),
                    loc=body.loc,
                )
            if plan.kind == "dep_in":
                branches = []
                for j in range(1, plan.count + 1):
                    nxt = dict(fi)
                    nxt[plan.family] = j
                    branches.append(
                        m.Branch(None, m.Prefix(f"{body.action}_{j}", rewrite(body.cont, nxt)))
                    )
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
            return m.Prefix(f"{body.action}_{j}", rewrite(body.cont, fi), loc=body.loc)
        raise AssertionError(body)

    specialize(equations[0].name, {}, equations[0].loc)
    return tuple(result), fresh


# ---------------------------------------------------------------------------
# Parameter substitution
# ---------------------------------------------------------------------------


def _subst_expr(expr: m.Expr, env: dict[str, Value]) -> m.Expr:
    if isinstance(expr, m.Var) and expr.name in env:
        value = env[expr.name]
        if isinstance(value, bool):
            return m.BoolLit(value, loc=expr.loc)
        return m.IntLit(value, loc=expr.loc)
    if isinstance(expr, m.Unary):
        return replace(expr, operand=_subst_expr(expr.operand, env))
    if isinstance(expr, m.Binary):
        return replace(
            expr, left=_subst_expr(expr.left, env), right=_subst_expr(expr.right, env)
        )
    return expr


def _subst_body(body: m.ProcessBody, env: dict[str, Value]) -> m.ProcessBody:
    if isinstance(body, m.Stop):
        return body
    if isinstance(body, m.Invoke):
        return replace(body, args=tuple(_subst_expr(a, env) for a in body.args))
    if isinstance(body, m.Prefix):
        return replace(body, cont=_subst_body(body.cont, env))
    if isinstance(body, m.Choice):
        return replace(
            body,
            branches=tuple(
                m.Branch(
                    None if b.guard is None else _subst_expr(b.guard, env),
                    _subst_body(b.body, env),
                    loc=b.loc,
                )
                for b in body.branches
            ),
        )
    raise AssertionError(body)


def _substitute_aet_params(
    aet: m.AetDef, actuals: dict[str, Value]
) -> tuple[m.BehaviorEquation, ...]:
    out = []
    for eq in aet.equations:
        env = {k: v for k, v in actuals.items() if k not in {p.name for p in eq.params}}
        params = tuple(
            replace(p, default=None if p.default is None else _subst_expr(p.default, env))
            for p in eq.params
        )
        out.append(replace(eq, params=params, body=_subst_body(eq.body, env)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Elaborated architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A maximal set of attached interactions sharing one fresh name:
    the two ends of a uni-uni attachment, or an and-interaction with
    all its attached uni-interactions, or an originally-asynchronous
    interaction with its queue ends (an internal family, owned by the
    AEI that gained the queues)."""

    endpoints: tuple[tuple[str, str], ...]
    internal_owner: str | None = None

    @property
    def composite(self) -> str:
        return "#".join(f"{aei}.{inter}" for aei, inter in self.endpoints)


@dataclass(frozen=True)
class QueueInfo:
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

    def bundle(self, aei: str) -> list[str]:
        """An AEI together with its implicit queue AEIs."""
        return [aei] + [
            q.name for q in self.aeis.values() if q.queue is not None and q.queue.owner == aei
        ]

    def bundle_owner(self, name: str) -> str:
        info = self.aeis[name].queue
        return info.owner if info is not None else name

    def families_of_bundle(self, aei: str) -> list[Family]:
        members = set(self.bundle(aei))
        return [
            f for f in self.families
            if any(x in members for x, _ in f.endpoints)
        ]


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

    at_env: dict[str, Value] = {}
    for p in d.params:
        if p.default is not None:
            at_env[p.name] = eval_const(p.default, dict(at_env))

    aeis: dict[str, ElabAei] = {}
    # Attachments, rewritten in place as interactions are renamed/rewired.
    attachments: list[tuple[tuple[str, str], tuple[str, str]]] = [
        (att.source, att.target) for att in d.attachments
    ]

    for inst in d.instances:
        aet = arch.aets[inst.aet]
        actuals = {
            p.name: eval_const(a, at_env) for p, a in zip(aet.params, inst.args)
        }
        equations = _substitute_aet_params(aet, actuals)

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
        equations, fresh = or_rewrite(equations, counts, deps, ors)

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
            involved = [
                (k, a) for k, a in enumerate(attachments) if endpoint in a
            ]
            if decl.dep_on is not None:
                input_atts = arch.attachments_of[(inst.name, decl.dep_on)]
                partner_order = [a.from_aei for a in input_atts]
                involved.sort(
                    key=lambda ka: partner_order.index(
                        ka[1][1][0] if ka[1][0] == endpoint else ka[1][0][0]
                    )
                )
            for copy_name, (k, (src, dst)) in zip(copies, involved):
                if src == endpoint:
                    attachments[k] = ((inst.name, copy_name), dst)
                else:
                    attachments[k] = (src, (inst.name, copy_name))

    families: list[Family] = []
    iaq_counter = oaq_counter = 0
    queue_equations = _queue_aet_equations(capacity)

    def add_queue(kind: str, owner: str, interaction: str, partner: str) -> str:
        nonlocal iaq_counter, oaq_counter
        if kind == "IAQ":
            iaq_counter += 1
            name = f"IAQ_{iaq_counter}"
        else:
            oaq_counter += 1
            name = f"OAQ_{oaq_counter}"
        aeis[name] = ElabAei(
            name,
            queue_equations,
            {
                QUEUE_ARRIVE: ElabInteraction(
                    QUEUE_ARRIVE, m.Direction.INPUT, m.Multiplicity.UNI, m.Synchronicity.SYNC
                ),
                QUEUE_DEPART: ElabInteraction(
                    QUEUE_DEPART, m.Direction.OUTPUT, m.Multiplicity.UNI, m.Synchronicity.SYNC
                ),
            },
            queue=QueueInfo(owner, kind, interaction, partner),
        )
        return name

    # Queue insertion: all asynchronous inputs first, then all outputs,
    # so that a fully asynchronous attachment gains both of its buffers.
    for aei_name in [inst.name for inst in d.instances]:
        elab = aeis[aei_name]
        for name, inter in list(elab.interactions.items()):
            if inter.synchronicity is not m.Synchronicity.ASYNC:
                continue
            if inter.direction is not m.Direction.INPUT:
                continue
            endpoint = (aei_name, name)
            involved = [(k, a) for k, a in enumerate(attachments) if a[1] == endpoint]
            departs = []
            for k, (src, _) in involved:
                queue = add_queue("IAQ", aei_name, name, src[0])
                attachments[k] = (src, (queue, QUEUE_ARRIVE))
                departs.append((queue, QUEUE_DEPART))
            if departs:
                families.append(
                    Family(tuple(departs) + (endpoint,), internal_owner=aei_name)
                )
            elab.interactions[name] = replace(
                inter, synchronicity=m.Synchronicity.SSYNC, converted_from_async=True
            )

    for aei_name in [inst.name for inst in d.instances]:
        elab = aeis[aei_name]
        for name, inter in list(elab.interactions.items()):
            if inter.synchronicity is not m.Synchronicity.ASYNC:
                continue
            endpoint = (aei_name, name)
            involved = [(k, a) for k, a in enumerate(attachments) if a[0] == endpoint]
            arrives = []
            for k, (_, dst) in involved:
                queue = add_queue("OAQ", aei_name, name, aeis[dst[0]].queue.owner
                                  if aeis[dst[0]].queue else dst[0])
                arrives.append((queue, QUEUE_ARRIVE))
                attachments[k] = ((queue, QUEUE_DEPART), dst)
            if arrives:
                families.append(
                    Family((endpoint,) + tuple(arrives), internal_owner=aei_name)
                )
            elab.interactions[name] = replace(
                inter, synchronicity=m.Synchronicity.SYNC, converted_from_async=True
            )

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
            families.append(Family((src, dst)))
            continue
        group = [
            (i, a) for i, a in enumerate(attachments)
            if not consumed[i] and (a[0] == hub or a[1] == hub)
        ]
        ends: list[tuple[str, str]] = []
        for i, (s, t) in group:
            consumed[i] = True
            ends.append(t if hub_is_output else s)
        if hub_is_output:
            families.append(Family((hub, *ends)))
        else:
            families.append(Family((*ends, hub)))

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

    aei: str
    context: tuple[str, ...]
    li_attached: frozenset[tuple[str, str]]  # bundle endpoints attached within context
    phi: tuple[tuple[str, str], ...]  # dotted name -> composite, sorted
    oali: frozenset[str]  # composite internal names plus converted-input exceptions
    visible: frozenset[str]  # the V set: phi image union oali

    def phi_map(self) -> dict[str, str]:
        return dict(self.phi)


def _external_families(arch: ElabArchitecture) -> list[Family]:
    return [f for f in arch.families if f.internal_owner is None]


def build_name_sets(arch: ElabArchitecture, aei: str, context: tuple[str, ...]) -> NameSets:
    members = set(arch.bundle(aei))
    ctx = set(context)
    li: set[tuple[str, str]] = set()
    phi: dict[str, str] = {}
    for f in _external_families(arch):
        owners = {arch.bundle_owner(x) for x, _ in f.endpoints}
        if aei not in owners:
            continue
        if not (owners - {aei}) & ctx:
            continue
        for x, inter in f.endpoints:
            if x in members:
                li.add((x, inter))
                phi[f"{x}.{inter}"] = f.composite
    oali: set[str] = set()
    for f in arch.families:
        if f.internal_owner == aei:
            oali.add(f.composite)
    for name, inter in arch.aeis[aei].interactions.items():
        if inter.converted_from_async and inter.direction is m.Direction.INPUT:
            oali.add(exception_label(f"{aei}.{name}"))
    visible = frozenset(phi.values()) | oali
    return NameSets(
        aei=aei,
        context=tuple(context),
        li_attached=frozenset(li),
        phi=tuple(sorted(phi.items())),
        oali=frozenset(oali),
        visible=visible,
    )


def sync_set(arch: ElabArchitecture, left: str, right: str) -> frozenset[str]:
    """Pairwise synchronization set: composite names of external
    families touching both bundles."""
    out = set()
    for f in _external_families(arch):
        owners = {arch.bundle_owner(x) for x, _ in f.endpoints}
        if left in owners and right in owners:
            out.add(f.composite)
    return frozenset(out)


def h_set(arch: ElabArchitecture, aei: str, others: set[str] | frozenset[str]) -> frozenset[str]:
    """Composite names of the queue-AEI interactions of `aei` attached
    to any of the other AEIs."""
    queues = set(arch.bundle(aei)) - {aei}
    out = set()
    for f in _external_families(arch):
        owners = {arch.bundle_owner(x) for x, _ in f.endpoints}
        if owners & set(others) and any(x in queues for x, _ in f.endpoints):
            out.add(f.composite)
    return frozenset(out)


def e_set(arch: ElabArchitecture, aei: str, others: set[str] | frozenset[str]) -> frozenset[str]:
    """Exception labels of semi-synchronous interactions involved in
    attachments between `aei` (or its queues) and the other AEIs."""
    out = set()
    for f in _external_families(arch):
        owners = {arch.bundle_owner(x) for x, _ in f.endpoints}
        if aei in owners and owners & set(others):
            for x, inter in f.endpoints:
                decl = arch.aeis[x].interactions[inter]
                if decl.synchronicity is m.Synchronicity.SSYNC:
                    out.add(exception_label(f"{x}.{inter}"))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Semantics variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemanticsRequest:
    """Which LTS to build: a subject AEI (or set) relative to a context,
    with a closure level and the buffers to include.

    closure: "open" (no hiding), "pc" (hide everything outside the
    visibility set), or "tc" (additionally hide the originally
    asynchronous names).  buffers_for selects the implicit queues whose
    far side lies in the given set; an empty tuple is the
    without-buffers variant.  Members listed in totally_closed_up_to
    stay partially closed inside an otherwise totally closed composite.
    """

    subject: tuple[str, ...]
    context: tuple[str, ...]
    closure: str = "pc"
    buffers_for: tuple[str, ...] = ()
    totally_closed_up_to: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.closure not in ("open", "pc", "tc"):
            raise ValueError(f"unknown closure {self.closure!r}")
        unknown = set(self.totally_closed_up_to) - set(self.subject)
        if unknown:
            raise ValueError(f"totally_closed_up_to not within subject: {sorted(unknown)}")


def queue_lts(arch: ElabArchitecture, queue_name: str,
              state_limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """The bounded queue behavior under its internal composite name."""
    elab = arch.aeis[queue_name]
    info = elab.queue
    assert info is not None
    lts = generate_lts(
        elab.equations,
        prefix=queue_name,
        state_limit=state_limit,
        mark_when=lambda env: env.get("n") == arch.capacity,
    )
    inner = QUEUE_DEPART if info.kind == "IAQ" else QUEUE_ARRIVE
    for f in arch.families:
        if f.internal_owner == info.owner and (queue_name, inner) in f.endpoints:
            return relabel(lts, {f"{queue_name}.{inner}": f.composite})
    return lts


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
    queues on the right), relabeled to composite names, then closed."""
    if context is None:
        context = arch.real_aeis
    elab = arch.aeis[aei]
    if elab.is_queue:
        raise ValueError(f"'{aei}' is an implicit queue AEI")
    ssync = frozenset(
        name
        for name, inter in elab.interactions.items()
        if inter.synchronicity is m.Synchronicity.SSYNC
    )
    base = generate_lts(
        elab.equations, prefix=aei, ssync_actions=ssync, state_limit=state_limit
    )

    # Internal relabeling: the AEI side of its own internal families.
    internal_map: dict[str, str] = {}
    for f in arch.families:
        if f.internal_owner == aei:
            for x, inter in f.endpoints:
                if x == aei:
                    internal_map[f"{x}.{inter}"] = f.composite
    if internal_map:
        base = relabel(base, internal_map)

    buffers = set(buffers_for)
    queues = [
        name for name in arch.bundle(aei)[1:]
        if arch.aeis[name].queue.partner in buffers
    ]

    def family_of(queue_name: str) -> Family:
        inner = QUEUE_DEPART if arch.aeis[queue_name].queue.kind == "IAQ" else QUEUE_ARRIVE
        for f in arch.families:
            if f.internal_owner == aei and (queue_name, inner) in f.endpoints:
                return f
        raise AssertionError(f"no internal family for {queue_name}")

    def cascade_rank(queue_name: str) -> tuple[int, int]:
        info = arch.aeis[queue_name].queue
        inter = elab.interactions[info.interaction]
        is_and = inter.multiplicity is m.Multiplicity.AND
        if info.kind == "IAQ":
            stage = 1 if is_and else 0
        else:
            stage = 3 if is_and else 2
        return (stage, int(queue_name.split("_")[1]))

    acc = base
    for queue_name in sorted(queues, key=cascade_rank):
        info = arch.aeis[queue_name].queue
        q = queue_lts(arch, queue_name, state_limit)
        name = family_of(queue_name).composite
        if info.kind == "IAQ":
            acc = parallel(q, acc, {name}, state_limit)
        else:
            acc = parallel(acc, q, {name}, state_limit)

    sets = build_name_sets(arch, aei, context)
    phi = sets.phi_map()
    if phi:
        acc = relabel(acc, phi)
    if closure == "open":
        return acc
    if closure == "pc":
        return hide(acc, keep_only=sets.visible)
    if closure == "tc":
        return hide(acc, keep_only=sets.visible - sets.oali)
    raise ValueError(f"unknown closure {closure!r}")


def composite_semantics(
    arch: ElabArchitecture,
    request: SemanticsRequest,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Lts:
    """Left-associated parallel chain over the subject AEIs with
    pairwise-accumulated synchronization sets; each member closed
    according to the request."""
    unknown = [s for s in request.subject if s not in arch.aeis or arch.aeis[s].is_queue]
    if unknown:
        raise ValueError(f"unknown subject AEIs: {unknown}")
    members = list(request.subject)
    if not members:
        raise ValueError("empty subject")

    def member_closure(name: str) -> str:
        if request.closure == "tc" and name in request.totally_closed_up_to:
            return "pc"
        return request.closure

    acc = aei_semantics(
        arch,
        members[0],
        context=request.context,
        closure=member_closure(members[0]),
        buffers_for=request.buffers_for,
        state_limit=state_limit,
    )
    for k in range(1, len(members)):
        sync: set[str] = set()
        for i in range(k):
            sync |= sync_set(arch, members[i], members[k])
        nxt = aei_semantics(
            arch,
            members[k],
            context=request.context,
            closure=member_closure(members[k]),
            buffers_for=request.buffers_for,
            state_limit=state_limit,
        )
        acc = parallel(acc, nxt, sync, state_limit)
    return acc
