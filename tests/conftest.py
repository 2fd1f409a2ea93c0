from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from pathlib import Path

import pytest

from padlver import elaborate, parse, validate
from padlver import model as m
from padlver.elaborate import ElabArchitecture, families_of
from padlver.equivalence import (
    EquivalenceVerdict,
    _quotient,
    _rounds,
    _weak_signatures,
    branching_quotient,
    weak_bisim_check,
)
from padlver.lts import (
    DEFAULT_STATE_LIMIT,
    Lts,
    _canonical,
    _require_resolved,
    build_lts,
    exception_label,
    parallel,
)
from padlver.topology import (
    SATURATION_BUDGET_FACTOR,
    CheckOutcome,
    ReductionResult,
    _check_systems,
)
from padlver.validate import ValidatedArchitecture

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_source(name: str) -> str:
    return (FIXTURES / f"{name}.padl").read_text(encoding="utf-8")


def load_arch(name: str, capacity: int = 2) -> ElabArchitecture:
    return elaborate(validate(parse(fixture_source(name))), capacity)


def attach_no(arch: ValidatedArchitecture, endpoint: tuple[str, str]) -> int:
    """Number of attachments involving an (aei, interaction) endpoint."""
    aei, inter = endpoint
    if aei not in arch.instances or arch.aet_of(aei).interaction(inter) is None:
        raise ValueError(f"unknown endpoint {aei}.{inter}")
    return len(arch.attachments_of.get(endpoint, []))


def e_set(arch: ElabArchitecture, aei: str, others: set[str] | frozenset[str]) -> frozenset[str]:
    """Exception labels of semi-synchronous interactions involved in
    attachments between `aei` (or its queues) and the other AEIs."""
    out = set()
    for f in arch.families:
        if aei in f.owners and not f.owners.isdisjoint(others):
            for x, inter in f.endpoints:
                decl = arch.aeis[x].interactions[inter]
                if decl.synchronicity is m.Synchronicity.SSYNC:
                    out.add(exception_label(f"{x}.{inter}"))
    return frozenset(out)


def plain_product(arch: ElabArchitecture, parts: Iterable[tuple[str, Lts]],
                  state_limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """The plain product of (AEI, semantics) parts: a left fold of
    parallel, each part synchronizing with the parts before it on the
    families it shares with them, and each taken from parts only once
    the parts before it are composed.  Neither minimized nor resolved:
    the reference for the checks' minimized compositions and for the
    direct oracle's raw products."""
    acc = None
    composed: frozenset[str] = frozenset()  # the families of the parts in acc
    for aei, lts in parts:
        families = families_of(arch, aei)
        acc = lts if acc is None else parallel(acc, lts, families & composed, state_limit)
        composed |= families
    return acc


def reachable_states(lts: Lts) -> list[int]:
    """States reachable from the initial state, in BFS order."""
    seen = [False] * lts.n_states
    seen[lts.initial] = True
    order = [lts.initial]
    for s in order:  # the loop appends
        for _, d, _, ed in lts.trans[s]:
            for dst in (d, ed) if ed >= 0 else (d,):
                if not seen[dst]:
                    seen[dst] = True
                    order.append(dst)
    return order


def renumber_bfs(lts: Lts) -> Lts:
    """Renumber states in breadth-first discovery order and drop
    unreachable ones; transitions keep their labels."""
    order = reachable_states(lts)
    # remap[-1] stays -1, so a normal transition's exc_target maps to -1.
    remap = [-1] * (lts.n_states + 1)
    for new, old in enumerate(order):
        remap[old] = new
    rows = [
        [(l, remap[d], el, remap[ed]) for l, d, el, ed in lts.trans[old]] for old in order
    ]
    marked = frozenset(remap[s] for s in lts.marked if remap[s] >= 0)
    return _canonical(lts.labels, rows, 0, marked)


def minimize(lts: Lts) -> Lts:
    """Quotient under weak bisimilarity.

    The result is weakly bisimilar to the input; transitions are the
    block images of the original ones with intra-block tau steps
    dropped, and unreachable blocks are pruned."""
    _require_resolved(lts, "minimize")
    reduced, block = branching_quotient(lts)
    final, _ = _rounds(reduced.n_states, _weak_signatures(reduced), 0, None)
    return renumber_bfs(_quotient(lts, [final[b] for b in block], max(final) + 1))


def check_evidence(arch: ElabArchitecture, outcome: CheckOutcome,
                   state_limit: int = DEFAULT_STATE_LIMIT) -> tuple[Lts, Lts, EquivalenceVerdict]:
    """The (lhs, rhs, verdict) behind an outcome of arch's checks at
    state_limit: the systems rebuilt by _check_systems and compared as
    the check compares them.  The outcome keeps none of them, so this
    also asserts that they give the outcome's answer, lhs size and
    rendered formula."""
    if outcome.kind == "compatibility":
        members, member = (outcome.subject[0], outcome.partner), outcome.subject[0]
    else:
        members, member = outcome.subject, outcome.partner
    lhs, rhs = _check_systems(arch, members, member, state_limit)
    verdict = weak_bisim_check(lhs, rhs, saturation_budget=SATURATION_BUDGET_FACTOR * state_limit)
    formula = None if verdict.formula is None else verdict.formula.render()
    assert (verdict.equivalent, lhs.n_states, formula) == (
        outcome.equivalent, outcome.lhs_states, outcome.formula_text)
    return lhs, rhs, verdict


def all_conditions_hold(reduction: ReductionResult) -> bool:
    return all(c.holds for c in reduction.conditions)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def star_source(n: int, synchronous: bool) -> str:
    """The client-server fixture's server with clients C_1..C_n."""
    name = "client_server_sync" if synchronous else "client_server_async"
    types = fixture_source(name).split("  ARCHI_TOPOLOGY")[0]
    clients = [f"C_{i}" for i in range(1, n + 1)]
    instances = ";\n".join(["      S : Server_Type()"] + [f"      {c} : Client_Type()" for c in clients])
    attachments = ";\n".join(
        [f"      FROM {c}.send_request TO S.receive_request" for c in clients]
        + [f"      FROM S.send_response TO {c}.receive_response" for c in clients]
    )
    return (f"{types}  ARCHI_TOPOLOGY\n    ARCHI_ELEM_INSTANCES\n{instances}\n"
            f"    ARCHI_INTERACTIONS void\n    ARCHI_ATTACHMENTS\n{attachments}\nEND\n")


def visible_labels(lts: Lts) -> set[str]:
    """Labels of transitions reachable from the initial state, tau
    excluded, exception labels of semi-synchronous moves included."""
    seen = set()
    for s in reachable_states(lts):
        for l, _, el, ed in lts.trans[s]:
            if l != 0:
                seen.add(lts.labels[l])
            if ed >= 0:
                seen.add(lts.labels[el])
    return seen


# ---------------------------------------------------------------------------
# Random LTS generation (seeded, reproducible)
# ---------------------------------------------------------------------------

LABELS = ("a", "b", "c")


def from_traces(*traces: tuple[str, ...]) -> Lts:
    """An LTS that is the choice among the given action sequences."""
    triples: list[tuple[int, str, int]] = []
    n = 1
    for trace in traces:
        src = 0
        for label in trace:
            triples.append((src, label, n))
            src = n
            n += 1
    return build_lts(n, 0, triples)


def random_lts(rng: random.Random, max_states: int = 8,
               labels: tuple[str, ...] = LABELS, tau_bias: float = 0.3) -> Lts:
    n = rng.randint(1, max_states)
    triples = []
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            label = "tau" if rng.random() < tau_bias else rng.choice(labels)
            triples.append((s, label, rng.randrange(n)))
    return build_lts(n, 0, triples)


def reachable_part(lts: Lts) -> Lts:
    """The states of a plain (not semi-synchronous) LTS reachable from
    its initial state, in their relative order: what read_aut keeps of
    the file write_aut makes of it."""
    seen, work = {lts.initial}, [lts.initial]
    while work:
        for _, d, _, _ in lts.trans[work.pop()]:
            if d not in seen:
                seen.add(d)
                work.append(d)
    number = {s: k for k, s in enumerate(sorted(seen))}
    triples = [(number[s], lts.labels[l], number[d])
               for s in sorted(seen) for l, d, _, _ in lts.trans[s]]
    return build_lts(len(number), number[lts.initial], triples)


def random_semisync_lts(rng: random.Random, max_states: int = 6,
                        labels: tuple[str, ...] = LABELS) -> Lts:
    n = rng.randint(1, max_states)
    triples = []
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            label = rng.choice(labels)
            if rng.random() < 0.3:
                triples.append(
                    (s, label, rng.randrange(n), f"O.{label}_exception", rng.randrange(n))
                )
            else:
                kind = "tau" if rng.random() < 0.2 else label
                triples.append((s, kind, rng.randrange(n)))
    return build_lts(n, 0, triples)


def prefix_lts(label: str, lts: Lts) -> Lts:
    """The process label . L: one fresh initial state."""
    triples = [(0, label, lts.initial + 1)]
    for s, ts in enumerate(lts.trans):
        for l, d, _, _ in ts:
            triples.append((s + 1, lts.labels[l], d + 1))
    return build_lts(lts.n_states + 1, 0, triples)


def tau_pad(lts: Lts, rng: random.Random) -> Lts:
    """A weakly bisimilar variant: some transitions take a tau detour."""
    triples = []
    extra = lts.n_states
    for s, ts in enumerate(lts.trans):
        for l, d, _, _ in ts:
            if rng.random() < 0.4:
                triples.append((s, lts.labels[l], extra))
                triples.append((extra, "tau", d))
                extra += 1
            else:
                triples.append((s, lts.labels[l], d))
    return build_lts(extra, lts.initial, triples)


# ---------------------------------------------------------------------------
# Independent weak-bisimilarity oracle (greatest-fixpoint computation,
# no saturation, no partition refinement)
# ---------------------------------------------------------------------------


def _weak_moves(lts: Lts, state: int) -> dict[str, frozenset[int]]:
    def tau_closure(seed: frozenset[int]) -> frozenset[int]:
        seen = set(seed)
        work = list(seed)
        while work:
            x = work.pop()
            for l, d, _, _ in lts.trans[x]:
                if lts.labels[l] == "tau" and d not in seen:
                    seen.add(d)
                    work.append(d)
        return frozenset(seen)

    base = tau_closure(frozenset({state}))
    moves: dict[str, set[int]] = {"tau": set(base)}
    for x in base:
        for l, d, _, _ in lts.trans[x]:
            name = lts.labels[l]
            if name == "tau":
                continue
            moves.setdefault(name, set()).update(tau_closure(frozenset({d})))
    return {k: frozenset(v) for k, v in moves.items()}


def naive_weak_bisim(l1: Lts, l2: Lts) -> bool:
    """Greatest fixpoint over state pairs, straight from the
    definition: every single step on one side must be answered by a
    weak move on the other, with related targets.  Quadratic in the
    state product per round; keep inputs small."""
    weak1 = [_weak_moves(l1, s) for s in range(l1.n_states)]
    weak2 = [_weak_moves(l2, s) for s in range(l2.n_states)]
    related = {(p, q) for p in range(l1.n_states) for q in range(l2.n_states)}

    def answered(steps_lts, p, weak_other, q, left_side):
        for l, d, _, _ in steps_lts.trans[p]:
            name = steps_lts.labels[l]
            answers = weak_other[q].get(name, frozenset())
            pair = (lambda e: (d, e)) if left_side else (lambda e: (e, d))
            if not any(pair(e) in related for e in answers):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for p, q in list(related):
            if not answered(l1, p, weak2, q, True) or not answered(l2, q, weak1, p, False):
                related.discard((p, q))
                changed = True
    return (l1.initial, l2.initial) in related


def naive_branching_blocks(lts: Lts) -> list[int]:
    """Branching bisimilarity classes of one LTS, numbered in order of
    first occurrence: the greatest fixpoint over state pairs, straight
    from the definition.  Every step p -a-> p' must be answered by q,
    either trivially (a is tau and p' is related to q) or by
    q -tau*-> q'' -a-> q' with p related to q'' and p' to q'."""
    n = lts.n_states
    closure = []
    for q in range(n):
        seen = {q}
        work = [q]
        while work:
            x = work.pop()
            for l, d, _, _ in lts.trans[x]:
                if l == 0 and d not in seen:
                    seen.add(d)
                    work.append(d)
        closure.append(seen)
    related = {(p, q) for p in range(n) for q in range(n)}

    def matches(p, a, p2, q2):  # p ~ q2, and q2 -a-> some q' ~ p2 for p -a-> p2
        return (p, q2) in related and any(
            l == a and (p2, d) in related for l, d, _, _ in lts.trans[q2])

    def answered(p, q):
        for a, p2, _, _ in lts.trans[p]:
            if a == 0 and (p2, q) in related:
                continue
            if not any(matches(p, a, p2, q2) for q2 in closure[q]):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for p, q in list(related):
            if not answered(p, q) or not answered(q, p):
                related.discard((p, q))
                changed = True
    number: dict[int, int] = {}
    return [number.setdefault(min(q for q in range(n) if (p, q) in related), len(number))
            for p in range(n)]


def is_branching_bisimulation(lts: Lts, block: Sequence[int]) -> bool:
    """Whether the partition of lts's states into blocks is a branching
    bisimulation (Groote & Vaandrager 1990), checked in one pass over
    the states rather than computed.  A move p -a-> p' of a member p of
    block B is inert when a is tau and p' is in B; every other move must
    be answered from every member q of B by some q -tau*-> q'' -a-> q'
    with q'' in B and q' in the block of p'.  So every member of B must
    offer, from the states in B that its tau steps reach, each
    (label, block) pair of a non-inert move of some member."""
    needed: dict[int, set[tuple[int, int]]] = {}
    for p, row in enumerate(lts.trans):
        b = block[p]
        needed.setdefault(b, set()).update(
            (l, block[d]) for l, d, _, _ in row if l or block[d] != b)
    for q in range(lts.n_states):
        b = block[q]
        offered: set[tuple[int, int]] = set()
        seen = {q}
        work = [q]
        while work:
            x = work.pop()
            for l, d, _, _ in lts.trans[x]:
                if block[x] == b:
                    offered.add((l, block[d]))
                if not l and d not in seen:
                    seen.add(d)
                    work.append(d)
        if not needed[b] <= offered:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent cyclic-union oracle (one reachability search per edge)
# ---------------------------------------------------------------------------


def _reach(edges: list[tuple[str, str]], start: str) -> set[str]:
    adj: dict[str, list[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen, work = {start}, [start]
    while work:
        for w in adj.get(work.pop(), ()):
            if w not in seen:
                seen.add(w)
                work.append(w)
    return seen


def naive_cyclic_unions(
    vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]
) -> tuple[tuple[tuple[str, ...], ...], tuple[tuple[str, ...], ...]]:
    """Cyclic unions and their frontiers, straight from the definition:
    an edge lies on a cycle iff its endpoints stay connected without
    it; the unions are the connected components of those edges, members
    and unions in declaration order; a frontier member has an edge
    leaving its union."""
    cyclic = [e for e in edges if e[1] in _reach([f for f in edges if f != e], e[0])]
    on_cycle = {v for e in cyclic for v in e}
    unions: list[tuple[str, ...]] = []
    for v in vertices:
        if v in on_cycle and not any(v in union for union in unions):
            component = _reach(cyclic, v)
            unions.append(tuple(w for w in vertices if w in component))
    frontiers = tuple(
        tuple(v for v in union if any(v in e and not set(e) <= set(union) for e in edges))
        for union in unions
    )
    return tuple(unions), frontiers
