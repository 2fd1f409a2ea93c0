"""Weak bisimilarity: saturation, equivalence checking, quotient
minimization, and distinguishing-formula diagnostics.

The decision procedure saturates the transition relation (tau*-a-tau*
as single steps, tau-closure including the empty sequence) and then
runs plain signature-based partition refinement, i.e. strong
bisimilarity on the saturated system.  Before saturating, states on a
common tau-cycle are collapsed, which is sound for weak bisimilarity
and keeps the closure cheap.

On inequivalence a formula of the weak Hennessy-Milner fragment
(tt, negation, conjunction, weak diamond) is produced from the
refinement history; it holds at the first system's initial state and
fails at the second's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagnostics import StateLimitExceeded
from .lts import TAU, Lts, build_lts, relabel, renumber_bfs


# ---------------------------------------------------------------------------
# Weak Hennessy-Milner formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tt:
    def render(self) -> str:
        return "tt"


@dataclass(frozen=True)
class Not:
    sub: "WeakFormula"

    def render(self) -> str:
        return f"not {self.sub.render()}"


@dataclass(frozen=True)
class And:
    subs: tuple["WeakFormula", ...]

    def render(self) -> str:
        return "(" + " and ".join(f.render() for f in self.subs) + ")"


@dataclass(frozen=True)
class Dia:
    """Weak diamond: some tau*-label-tau* step (tau* alone for label
    tau) reaches a state satisfying the subformula."""

    label: str
    sub: "WeakFormula"

    def render(self) -> str:
        return f"<<{self.label}>> {self.sub.render()}"


WeakFormula = Tt | Not | And | Dia


def eval_formula(lts: Lts, formula: WeakFormula, state: int | None = None) -> bool:
    """Evaluate a weak formula directly on an (unsaturated) LTS.

    This is an independent code path from the refinement-based checker;
    tests use it to confirm that distinguishing formulas really hold on
    one side and fail on the other.
    """
    if state is None:
        state = lts.initial
    closures = _tau_closures(lts)
    memo: dict[tuple[int, int], bool] = {}

    def ev(s: int, f: WeakFormula) -> bool:
        key = (s, id(f))
        if key in memo:
            return memo[key]
        if isinstance(f, Tt):
            result = True
        elif isinstance(f, Not):
            result = not ev(s, f.sub)
        elif isinstance(f, And):
            result = all(ev(s, sub) for sub in f.subs)
        elif isinstance(f, Dia):
            if f.label == TAU:
                result = any(ev(u, f.sub) for u in closures[s])
            else:
                result = False
                for x in closures[s]:
                    for t in lts.trans[x]:
                        if lts.labels[t.label] == f.label:
                            if any(ev(u, f.sub) for u in closures[t.target]):
                                result = True
                                break
                    if result:
                        break
        else:  # pragma: no cover
            raise TypeError(f"unexpected formula {f!r}")
        memo[key] = result
        return result

    return ev(state, formula)


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def _tau_closures(lts: Lts) -> list[list[int]]:
    """Reflexive-transitive tau-closure per state (semisync excluded:
    callers resolve first)."""
    closures: list[list[int]] = []
    for s in range(lts.n_states):
        seen = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for t in lts.trans[x]:
                if t.label == 0 and t.target not in seen:
                    seen.add(t.target)
                    queue.append(t.target)
        closures.append(sorted(seen))
    return closures


def saturate(lts: Lts, max_transitions: int | None = None) -> Lts:
    """The weak transition relation as an explicit LTS.

    For every visible label a, an edge s -a-> u exists iff u is
    reachable from s by tau* a tau*; tau edges are the reflexive and
    transitive closure of the original tau steps.  The relation is
    quadratic in the worst case, so a transition budget can bound the
    construction; exceeding it raises StateLimitExceeded.
    """
    if lts.has_semisync():
        raise ValueError("saturate requires a resolved LTS")
    closures = _tau_closures(lts)
    triples: list[tuple[int, str, int]] = []
    for s in range(lts.n_states):
        for u in closures[s]:
            triples.append((s, TAU, u))
        targets: dict[int, set[int]] = {}
        for x in closures[s]:
            for t in lts.trans[x]:
                if t.label != 0:
                    targets.setdefault(t.label, set()).update(closures[t.target])
        for label_idx, dsts in targets.items():
            name = lts.labels[label_idx]
            for u in dsts:
                triples.append((s, name, u))
        if max_transitions is not None and len(triples) > max_transitions:
            raise StateLimitExceeded(max_transitions, lts.n_states, len(triples))
    return build_lts(lts.n_states, lts.initial, triples, lts.marked)


def _collapse_tau_sccs(lts: Lts) -> tuple[Lts, list[int]]:
    """Collapse states on common tau-cycles (they are weakly bisimilar).

    Returns the collapsed system and the state mapping."""
    n = lts.n_states
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            ts = lts.trans[v]
            while pi < len(ts):
                t = ts[pi]
                pi += 1
                if t.label != 0:
                    continue
                w = t.target
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    triples: list[tuple[int, str, int]] = []
    for s in range(n):
        for t in lts.trans[s]:
            src, dst = comp[s], comp[t.target]
            if t.label == 0 and src == dst:
                continue
            triples.append((src, lts.labels[t.label], dst))
    marked = frozenset(comp[s] for s in lts.marked)
    return build_lts(n_comps, comp[lts.initial], triples, marked), comp


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------


def _refine(lts: Lts) -> list[list[int]]:
    """Signature-based refinement to the coarsest strong bisimulation.

    Returns the full round history (round 0 is the single-block
    partition); the last entry is the stable partition."""
    n = lts.n_states
    parts = [0] * n
    rounds = [list(parts)]
    n_blocks = 1
    while True:
        sigs = []
        for s in range(n):
            sigs.append(frozenset((t.label, parts[t.target]) for t in lts.trans[s]))
        fresh: dict[tuple[int, frozenset], int] = {}
        new_parts = [0] * n
        for s in range(n):
            key = (parts[s], sigs[s])
            block = fresh.get(key)
            if block is None:
                block = len(fresh)
                fresh[key] = block
            new_parts[s] = block
        parts = new_parts
        rounds.append(list(parts))
        if len(fresh) == n_blocks:
            return rounds
        n_blocks = len(fresh)


def _strong_quotient(lts: Lts) -> tuple[Lts, list[int]]:
    """Quotient by strong bisimilarity (no saturation).  Strong classes
    refine weak ones, so this is a sound and cheap shrinking step before
    the quadratic saturation."""
    parts = _refine(lts)[-1]
    n_blocks = max(parts) + 1
    triples: list[tuple[int, str, int]] = []
    for s in range(lts.n_states):
        for t in lts.trans[s]:
            triples.append((parts[s], lts.labels[t.label], parts[t.target]))
    marked = frozenset(parts[s] for s in lts.marked)
    return build_lts(n_blocks, parts[lts.initial], triples, marked), parts


def _weak_rounds(
    lts: Lts, saturation_budget: int | None = None
) -> tuple[list[list[int]], Lts, list[int]]:
    """Refinement rounds for weak bisimilarity: collapse tau cycles,
    quotient by strong bisimilarity, saturate, refine.  Returns
    (rounds, saturated system, state map)."""
    collapsed, scc_map = _collapse_tau_sccs(lts)
    reduced, strong_map = _strong_quotient(collapsed)
    mapping = [strong_map[scc_map[s]] for s in range(lts.n_states)]
    saturated = saturate(reduced, saturation_budget)
    return _refine(saturated), saturated, mapping


# ---------------------------------------------------------------------------
# Checking and minimization
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceVerdict:
    equivalent: bool
    formula: WeakFormula | None
    blocks_left: tuple[int, ...]
    blocks_right: tuple[int, ...]
    n_blocks: int

    @property
    def witness(self) -> dict[str, tuple[int, ...]]:
        """The stable partition as a witness relation: states of either
        system sharing a block are weakly bisimilar."""
        return {"left": self.blocks_left, "right": self.blocks_right}


def _disjoint_union(l1: Lts, l2: Lts) -> tuple[Lts, int, int]:
    offset = l1.n_states
    triples: list[tuple] = []
    for lts, base in ((l1, 0), (l2, offset)):
        for s, ts in enumerate(lts.trans):
            for t in ts:
                if t.semisync:
                    triples.append(
                        (base + s, lts.labels[t.label], base + t.target,
                         lts.labels[t.exc_label], base + t.exc_target)
                    )
                else:
                    triples.append((base + s, lts.labels[t.label], base + t.target))
    marked = frozenset(l1.marked) | frozenset(offset + s for s in l2.marked)
    union = build_lts(l1.n_states + l2.n_states, l1.initial, triples, marked)
    return union, l1.initial, offset + l2.initial


def weak_bisim_check(
    l1: Lts, l2: Lts, saturation_budget: int | None = None
) -> EquivalenceVerdict:
    """Decide weak bisimilarity of the initial states.

    On success the stable partition is the witness; on failure the
    verdict carries a weak Hennessy-Milner formula holding at l1's
    initial state and failing at l2's.
    """
    for lts in (l1, l2):
        if lts.has_semisync():
            raise ValueError("weak_bisim_check requires resolved LTSs")
    union, i1, i2 = _disjoint_union(l1, l2)
    rounds, saturated, mapping = _weak_rounds(union, saturation_budget)
    final = rounds[-1]
    blocks = [final[mapping[s]] for s in range(union.n_states)]
    left = tuple(blocks[: l1.n_states])
    right = tuple(blocks[l1.n_states :])
    n_blocks = max(final) + 1 if final else 0
    p, q = mapping[i1], mapping[i2]
    if final[p] == final[q]:
        return EquivalenceVerdict(True, None, left, right, n_blocks)
    formula = _distinguish(saturated, rounds, p, q)
    return EquivalenceVerdict(False, formula, left, right, n_blocks)


def strong_bisim_check(l1: Lts, l2: Lts) -> EquivalenceVerdict:
    """Strong bisimilarity of the initial states (no saturation)."""
    for lts in (l1, l2):
        if lts.has_semisync():
            raise ValueError("strong_bisim_check requires resolved LTSs")
    union, i1, i2 = _disjoint_union(l1, l2)
    rounds = _refine(union)
    final = rounds[-1]
    left = tuple(final[: l1.n_states])
    right = tuple(final[l1.n_states :])
    n_blocks = max(final) + 1
    if final[i1] == final[i2]:
        return EquivalenceVerdict(True, None, left, right, n_blocks)
    formula = _distinguish(union, rounds, i1, i2)
    return EquivalenceVerdict(False, formula, left, right, n_blocks)


def weak_bisim_upto_relabeling(
    l1: Lts, l2: Lts, mapping: dict[str, str],
    saturation_budget: int | None = None,
) -> EquivalenceVerdict:
    """Weak bisimilarity after applying an injective relabeling to l1."""
    return weak_bisim_check(relabel(l1, mapping), l2, saturation_budget)


def minimize(lts: Lts) -> Lts:
    """Quotient under weak bisimilarity.

    The result is weakly bisimilar to the input; transitions are the
    block images of the original ones with intra-block tau steps
    dropped, and unreachable blocks are pruned."""
    if lts.has_semisync():
        raise ValueError("minimize requires a resolved LTS")
    rounds, _, mapping = _weak_rounds(lts)
    final = rounds[-1]
    block = [final[mapping[s]] for s in range(lts.n_states)]
    n_blocks = max(final) + 1
    triples: list[tuple[int, str, int]] = []
    for s in range(lts.n_states):
        for t in lts.trans[s]:
            src, dst = block[s], block[t.target]
            if t.label == 0 and src == dst:
                continue
            triples.append((src, lts.labels[t.label], dst))
    marked = frozenset(block[s] for s in lts.marked)
    quotient = build_lts(n_blocks, block[lts.initial], triples, marked)
    return renumber_bfs(quotient)


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------


def _distinguish(saturated: Lts, rounds: list[list[int]], p: int, q: int) -> WeakFormula:
    """Formula (over weak moves) true at p and false at q, built from
    the refinement history.  Depth minimality is not claimed."""

    def signature(s: int, parts: list[int]) -> set[tuple[int, int]]:
        return {(t.label, parts[t.target]) for t in saturated.trans[s]}

    def sep_round(a: int, b: int) -> int:
        for k, parts in enumerate(rounds):
            if parts[a] != parts[b]:
                return k
        raise AssertionError("states are not separated")

    def dist(a: int, b: int) -> WeakFormula:
        k = sep_round(a, b)
        prev = rounds[k - 1]
        sig_a = signature(a, prev)
        sig_b = signature(b, prev)
        forward = sorted(sig_a - sig_b)
        if not forward:
            return Not(dist(b, a))
        label_idx, target_block = forward[0]
        label = saturated.labels[label_idx]
        witness = min(
            t.target
            for t in saturated.trans[a]
            if t.label == label_idx and prev[t.target] == target_block
        )
        rivals = sorted(
            {t.target for t in saturated.trans[b] if t.label == label_idx}
        )
        if not rivals:
            return Dia(label, Tt())
        subs = list(dict.fromkeys(dist(witness, r) for r in rivals))
        body = subs[0] if len(subs) == 1 else And(tuple(subs))
        return Dia(label, body)

    return dist(p, q)
