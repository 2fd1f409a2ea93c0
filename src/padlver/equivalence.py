"""Weak bisimilarity: saturation, equivalence checking, quotient
minimization, and distinguishing-formula diagnostics.

The decision procedure is strong bisimilarity on the saturated system
(tau*-a-tau* as single steps, tau-closure including the empty
sequence), computed without building it.  The system is first made as
small as weak bisimilarity allows cheaply: states on a common tau-cycle
are collapsed, and the result is quotiented by branching bisimilarity,
which implies weak bisimilarity and is computed without saturating.
Both steps keep every state weakly bisimilar to its image, so either is
sound for every weak check.  The quotient has no tau cycle, so weak
signature rounds on it, each state's weak (label, block) moves taken
from its tau successors' signatures in tau order, are the rounds of
signature-based refinement on its saturation, round for round.  One
loop, _rounds, runs every strong and weak refinement over the
signatures that _strong_signatures or _weak_signatures computes.
saturate builds the saturated system itself, the plain reference.

A check answers one question, about the two initial states, and stops
once it is settled: a weak check whose initial states share a
branching block answers "equivalent" before it builds the quotient,
and refinement stops at the end of the first round that separates
them.  A verdict is that answer, the distinguishing formula below, and
the number of blocks of the partition that decided it.

On inequivalence a formula of the weak Hennessy-Milner fragment
(tt, negation, conjunction, weak diamond) is produced from the
refinement history, when the initial states separate within
MAX_FORMULA_ROUNDS rounds; it holds at the first system's initial
state and fails at the second's.  Its weak moves are made on demand
for the states it visits.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Hashable, Iterable, Sequence

from .diagnostics import StateLimitExceeded
from .lts import (
    TAU,
    Lts,
    Move,
    _canonical,
    _merged_table,
    _reindexed,
    _require_resolved,
)


# ---------------------------------------------------------------------------
# Weak Hennessy-Milner formulas
# ---------------------------------------------------------------------------

# Most refinement rounds a distinguishing formula is built from.  A
# round adds at most a not, a diamond and an and: 4 stack frames in
# render and eval_formula, 3 in _distinguish, none in hash, so the
# deepest formula takes 800 of the default recursion limit of 1000.
MAX_FORMULA_ROUNDS = 200


class _Formula:
    """Base of the nodes with parts: each hashes once, when made, from
    its parts' hashes, so hashing a deep formula does not recurse."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((type(self).__name__, *vars(self).values())))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Tt:
    def render(self) -> str:
        return "tt"


@dataclass(frozen=True)
class Not(_Formula):
    sub: "WeakFormula"
    __hash__ = _Formula.__hash__

    def render(self) -> str:
        return f"not {self.sub.render()}"


@dataclass(frozen=True)
class And(_Formula):
    subs: tuple["WeakFormula", ...]
    __hash__ = _Formula.__hash__

    def render(self) -> str:
        return "(" + " and ".join([f.render() for f in self.subs]) + ")"


@dataclass(frozen=True)
class Dia(_Formula):
    """Weak diamond: some tau*-label-tau* step (tau* alone for label
    tau) reaches a state satisfying the subformula."""

    label: str
    sub: "WeakFormula"
    __hash__ = _Formula.__hash__

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
    position = {name: i for i, name in enumerate(lts.labels)}
    memo: dict[tuple[int, int], bool] = {}
    # Weak successors by (tau-closure, label); the states of one tau-SCC
    # share their closure list.
    weak_after: dict[tuple[int, int], set[int]] = {}

    def ev(s: int, f: WeakFormula) -> bool:
        key = (s, id(f))
        if key in memo:
            return memo[key]
        if isinstance(f, Tt):
            result = True
        elif isinstance(f, Not):
            result = not ev(s, f.sub)
        elif isinstance(f, And):
            result = all([ev(s, sub) for sub in f.subs])
        elif isinstance(f, Dia):
            if f.label == TAU:
                after = closures[s]
            else:
                label = position.get(f.label, -1)
                closure = closures[s]
                after = weak_after.get((id(closure), label))
                if after is None:
                    after = weak_after[id(closure), label] = {
                        u for x in closure for l, d, _, _ in lts.trans[x]
                        if l == label for u in closures[d]}
            for u in after:
                if ev(u, f.sub):
                    result = True
                    break
            else:
                result = False
        else:  # pragma: no cover
            raise TypeError(f"unexpected formula {f!r}")
        memo[key] = result
        return result

    return ev(state, formula)


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

# Above every tau move (label 0) and below every other move.
_VISIBLE = (1,)


def _tau_sccs(lts: Lts) -> tuple[list[int], int]:
    """Strongly connected components of the tau steps: one iterative
    depth-first search with Tarjan's low-link test (as
    topology._bridges), which resumes each open state's iterator over
    its tau steps.  A state with an index but no component yet is on
    Tarjan's stack.

    Returns (component of each state, number of components).
    Components are numbered in completion order, so every component a
    tau step leads to from component c is numbered at most c.  Rows are
    sorted, so each state's tau steps are the moves of its row below
    _VISIBLE."""
    trans = lts.trans
    n = len(trans)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    order = count()
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = next(order)
        stack.append(root)
        row = trans[root]
        work = [(root, iter(row[:bisect_left(row, _VISIBLE)]))]
        while work:
            v, taus = work[-1]
            for _, w, _, _ in taus:
                if index[w] == -1:
                    index[w] = low[w] = next(order)
                    stack.append(w)
                    row = trans[w]
                    work.append((w, iter(row[:bisect_left(row, _VISIBLE)])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp, n_comps


def _tau_closures(lts: Lts) -> list[list[int]]:
    """Reflexive-transitive tau-closure per state, sorted (semisync
    excluded: callers resolve first).  States of one tau-SCC share one
    list, built once as the component's members plus the closures of
    the components its tau steps lead to."""
    comp, n_comps = _tau_sccs(lts)
    members: list[list[int]] = [[] for _ in range(n_comps)]
    for s, c in enumerate(comp):
        members[c].append(s)
    closure_of: list[list[int]] = []
    for c, states in enumerate(members):
        below = set()
        for v in states:
            for l, d, _, _ in lts.trans[v]:
                if l != 0:
                    break
                below.add(comp[d])
        below.discard(c)
        seen = set(states)
        for d in below:
            seen.update(closure_of[d])
        closure_of.append(sorted(seen))
    return [closure_of[c] for c in comp]


def saturate(lts: Lts, max_transitions: int | None = None) -> Lts:
    """The weak transition relation as an explicit LTS.

    For every visible label a, an edge s -a-> u exists iff u is
    reachable from s by tau* a tau*; tau edges are the reflexive and
    transitive closure of the original tau steps.  The relation is
    quadratic in the worst case, so a transition budget can bound the
    construction; exceeding it raises StateLimitExceeded, and the
    budget is counted, state by state, before the system is built.

    No check and no quotient calls it: they refine by _weak_signatures
    and build formulas from _weak_moves.  It is kept as the plain
    reference for that path: the tests compare weak checks with strong
    checks of saturated systems, and the weak rounds and moves with
    refining and reading its rows.
    """
    _require_resolved(lts, "saturate")
    closures = _tau_closures(lts)
    rows = []
    n_moves = 0
    for closure in closures:
        row = set(zip(repeat(0), closure, repeat(-1), repeat(-1)))
        for x in closure:
            for l, d, _, _ in lts.trans[x]:
                if l:
                    row.update(zip(repeat(l), closures[d], repeat(-1), repeat(-1)))
        rows.append(row)
        n_moves += len(row)
        if max_transitions is not None and n_moves > max_transitions:
            raise StateLimitExceeded(max_transitions, lts.n_states, n_moves,
                                     "saturation budget")
    return _canonical(lts.labels, rows, lts.initial, lts.marked)


def _image_rows(lts: Lts, block: Sequence[int], n_blocks: int) -> list[list[Move]]:
    """lts's transitions mapped through a state map, by block, with the
    tau steps inside one block dropped; rows are neither sorted nor
    free of duplicates.  A map keeps only (label, target) of a move, so
    a semi-synchronous one would lose its exception target: refused."""
    _require_resolved(lts, "a quotient")
    rows: list[list[Move]] = [[] for _ in range(n_blocks)]
    for s, ts in enumerate(lts.trans):
        b = block[s]
        row = rows[b]
        for l, d, _, _ in ts:
            d = block[d]
            if l or d != b:
                row.append((l, d, -1, -1))
    return rows


def _quotient(lts: Lts, block: Sequence[int], n_blocks: int) -> Lts:
    """The image of lts under a state map, intra-block tau steps dropped.
    Every visible move keeps its label, so lts's table is already the
    image's and _canonical only sorts the rows."""
    marked = frozenset(block[s] for s in lts.marked)
    return _canonical(lts.labels, _image_rows(lts, block, n_blocks), block[lts.initial], marked)


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------

# A signature function: each state's signature under a partition, in
# state order (_strong_signatures, _weak_signatures).
Signatures = Callable[[list[int]], Iterable[Hashable]]


def _rounds(
    n: int, signatures: Signatures, keep: int, pair: tuple[int, int] | None,
) -> tuple[list[int], list[list[int]]]:
    """Signature rounds over n states from the single-block partition
    (Blom & Orzan 2003), the one loop of strong and weak refinement:
    a round splits each block by its states' signatures under the last
    partition, signatures(parts) in state order, and numbers the new
    blocks in the same pass, in order of first occurrence over the
    states: a state's (block, signature) key takes the next number
    when it is new.  Runs until a
    round splits no block or, given a pair of states, separates them.

    Returns the last partition and the partitions of the first `keep`
    rounds (round 0 is the single-block partition)."""
    parts = [0] * n
    history = [parts][:keep]
    n_blocks = 1
    while True:
        blocks: dict[tuple[int, Hashable], int] = {}
        parts = [blocks.setdefault(key, len(blocks)) for key in zip(parts, signatures(parts))]
        if len(history) < keep:
            history.append(parts)
        if len(blocks) == n_blocks or pair is not None and parts[pair[0]] != parts[pair[1]]:
            return parts, history
        n_blocks = len(blocks)


def _strong_signatures(lts: Lts) -> Signatures:
    """The signature function of strong bisimilarity for _rounds: a
    state's signature is the set of its (label, target block) pairs,
    each encoded as block * width + label over the label table's width,
    as in _weak_signatures."""
    width = len(lts.labels)

    def signatures(parts: list[int]) -> list[frozenset[int]]:
        return [frozenset([parts[d] * width + l for l, d, _, _ in ts]) for ts in lts.trans]

    return signatures


def _weak_signatures(lts: Lts, budget: int | None = None) -> Signatures:
    """The signature function whose rounds (_rounds) on a branching
    quotient are those of _strong_signatures(saturate(lts)), without
    saturating.

    A state's signature is the set of its weak moves' (label, block)
    pairs, the same partition of the states as the label groups of its
    saturated row: (tau, b) for every block b that tau* reaches from
    it, (a, b) for every visible step to some x and every block b that
    tau* reaches from x, and the signatures of its tau successors.
    A round first takes the blocks tau* reaches from each state, then
    each state's entries from its visible steps, then the signatures.
    Every tau step of a branching quotient leads to a lower-numbered
    state (see branching_quotient), so in state order a tau
    successor's reached blocks and signature are ready before its
    predecessors need them.  An entry is encoded as block * width +
    label over the label table's width.

    Each entry stands for at least one saturated transition, so a
    round whose entries exceed the saturation budget raises
    StateLimitExceeded only where saturate(lts, budget) would.  The
    budget is checked after each state, and the error counts the
    round's entries up to that state."""
    n = lts.n_states
    width = len(lts.labels)
    # The states with tau steps, in state order, with their tau
    # targets; each state's visible steps as (label, target).
    taus = [(s, [d for l, d, _, _ in ts if not l])
            for s, ts in enumerate(lts.trans) if ts and not ts[0][0]]
    steps = [[(l, d) for l, d, _, _ in ts if l] for ts in lts.trans]

    def signatures(parts: list[int]) -> list[frozenset[int]]:
        reach = [{b * width} for b in parts]
        for s, succ in taus:
            reach[s].update(*map(reach.__getitem__, succ))
        sig = [{b * width} for b in parts]
        entries = 0
        for own, visible in zip(sig, steps):
            for l, x in visible:
                own.update(map(l.__add__, reach[x]))
            entries += len(own)
            if budget is not None and entries > budget:
                raise StateLimitExceeded(budget, n, entries, "saturation budget")
        for s, succ in taus:
            own = sig[s]
            entries -= len(own)
            own.update(*map(sig.__getitem__, succ))
            entries += len(own)
            if budget is not None and entries > budget:
                raise StateLimitExceeded(budget, n, entries, "saturation budget")
        return list(map(frozenset, sig))

    return signatures


def _weak_moves(lts: Lts) -> Callable[[int], set[tuple[int, int]]]:
    """A state's weak moves as (label, target) pairs, the row
    saturate(lts) gives it, made on demand from the tau-closures of
    the states asked about and of their visible steps' targets, each
    closure made once."""
    closures: dict[int, set[int]] = {}

    def closure(s: int) -> set[int]:
        reached = closures.get(s)
        if reached is None:
            reached = closures[s] = {s}
            todo = [s]
            while todo:
                for l, d, _, _ in lts.trans[todo.pop()]:
                    if l:
                        break
                    if d not in reached:
                        reached.add(d)
                        todo.append(d)
        return reached

    def moves(s: int) -> set[tuple[int, int]]:
        reached = closure(s)
        out = set(zip(repeat(0), reached))
        for x in reached:
            for l, d, _, _ in lts.trans[x]:
                if l:
                    out.update(zip(repeat(l), closure(d)))
        return out

    return moves


def _branching_partition(rows: Sequence[Sequence[Move]], width: int) -> list[int]:
    """The coarsest branching bisimulation of a tau-SCC-collapsed
    system, given as its rows (_image_rows under the components) over
    a label table of `width` names, by signature refinement (Blom &
    Orzan 2003).

    A state's signature is its non-inert (label, block) moves plus the
    signatures of its inert tau successors, those in its own block;
    states of one block stay together while their signatures agree.
    After the collapse every tau step leads to a lower-numbered state
    (_tau_sccs numbers components in completion order, and _quotient
    drops the steps inside one), so in state order each inert tau
    successor's signature is ready before its predecessors need it.
    Rows may hold duplicates and need no order.
    After the first round a round recomputes only states that moved to
    a new block, their predecessors, and the inert tau predecessors of
    any state whose signature changed.  When only some members of a
    block change, the unchanged rest keeps it; when all do, the largest
    group of equal new signatures keeps it (Hopcroft's "process the
    smaller half"), so along a chain most states stay put and dirty no
    predecessor.  Which group keeps a block never changes the result:
    the partition is the coarsest one, and blocks are numbered in order
    of first occurrence over the states."""
    n = len(rows)
    preds: list[list[int]] = [[] for _ in range(n)]
    tau_preds: list[list[int]] = [[] for _ in range(n)]
    for s, ts in enumerate(rows):
        for l, d, _, _ in ts:
            preds[d].append(s)
            if not l:
                tau_preds[d].append(s)
    block = [0] * n
    size = [n]  # members per block
    # Every member of a block has the same signature at the start of a
    # round, so a state whose signature changes leaves its block unless
    # all of its block's members change with it.
    sig: list[frozenset[int] | None] = [None] * n
    dirty = list(range(n))
    while dirty:
        # Scanned in state order: a state queues only inert tau
        # predecessors, numbered above it, so insort puts them ahead.
        dirty.sort()
        queued = set(dirty)
        changed: dict[int, list[int]] = {}  # block -> its members whose signature changed
        i = 0
        while i < len(dirty):
            s = dirty[i]
            i += 1
            b = block[s]
            own: set[int] = set()
            for l, d, _, _ in rows[s]:
                c = block[d]
                if l or c != b:
                    own.add(c * width + l)
                else:
                    own |= sig[d]
            if own != sig[s]:
                sig[s] = frozenset(own)
                changed.setdefault(b, []).append(s)
                for p in tau_preds[s]:
                    if p not in queued and block[p] == b:
                        queued.add(p)
                        insort(dirty, p, i)
        moved: list[int] = []
        for b, states in changed.items():
            groups: dict[frozenset[int], list[int]] = {}
            for s in states:
                groups.setdefault(sig[s], []).append(s)
            members = list(groups.values())
            if len(states) == size[b]:  # the largest group keeps the block
                members.remove(max(members, key=len))
            for group in members:
                size[b] -= len(group)
                new = len(size)
                size.append(len(group))
                for s in group:
                    block[s] = new
                moved += group
        dirty = list(set(moved).union(*map(preds.__getitem__, moved)))
    number: dict[int, int] = {}
    return [number.setdefault(b, len(number)) for b in block]


def _branching_blocks(lts: Lts) -> tuple[list[int], int]:
    """The branching block of each state of a resolved system, and the
    number of blocks: tau cycles are collapsed, and the coarsest
    branching bisimulation of the collapse is composed with the
    collapse.  Every state is branching, hence weakly, bisimilar to its
    block (Groote & Vaandrager 1990)."""
    comp, n_comps = _tau_sccs(lts)
    parts = _branching_partition(_image_rows(lts, comp, n_comps), len(lts.labels))
    return [parts[c] for c in comp], max(parts) + 1


def branching_quotient(lts: Lts) -> tuple[Lts, list[int]]:
    """The quotient of a resolved system by branching bisimilarity,
    with the block of each state (_branching_blocks): the input mapped
    through the blocks.  The tau steps it drops join states of one
    block, so they are inert, and every tau step it keeps leads to a
    lower-numbered block: blocks are numbered by first occurrence over
    the tau-SCC collapse, in which tau steps descend, and if block B
    has a tau step to C != B, B's first member z reaches C by a
    nonempty tau path (branching transfer), so C has a member below z."""
    block, n_blocks = _branching_blocks(lts)
    return _quotient(lts, block, n_blocks), block


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceVerdict:
    """A check's answer, and the formula that explains a "distinct".

    n_blocks is the number of blocks of the partition that decided it.
    When equivalent, that partition is a bisimulation relating the
    initial states: for a weak check decided before the weak rounds,
    the branching blocks; otherwise the stable partition of the
    refinement.  When distinct, it is the partition of the refinement
    round that first separated the initial states, and the formula is
    None when that round comes after MAX_FORMULA_ROUNDS."""

    equivalent: bool
    formula: WeakFormula | None
    n_blocks: int


def _disjoint_union(l1: Lts, l2: Lts) -> tuple[Lts, int, int]:
    """l1 and l2 side by side over one label table, tau and then both
    tables' other names sorted, with l2's states shifted by l1.n_states.
    Each side's label indices map into that table in order, so the rows
    stay sorted and free of duplicates and nothing is re-sorted; l1's
    rows are reused as they are when its indices do not move."""
    labels = _merged_table(l1.labels, l2.labels)
    position = {name: i for i, name in enumerate(labels)}
    offset = l1.n_states
    rows = _reindexed(l1, position) + _reindexed(l2, position, offset)
    marked = frozenset(l1.marked) | frozenset(offset + s for s in l2.marked)
    union = _canonical(labels, rows, l1.initial, marked, ordered=True)
    return union, l1.initial, offset + l2.initial


def _verdict(
    refined: Lts, p: int, q: int, signatures: Signatures,
    moves: Callable[[int], Iterable[tuple[int, int]]] | None = None,
) -> EquivalenceVerdict:
    """The verdict both checks end in: the rounds of `signatures` over
    `refined` (its _strong_signatures or _weak_signatures), whose
    states p and q stand for the initial states, until p and q separate
    or the partition is stable.  `moves` gives the moves a formula is
    built from (see _distinguish)."""
    final, rounds = _rounds(refined.n_states, signatures, MAX_FORMULA_ROUNDS + 1, (p, q))
    verdict = EquivalenceVerdict(final[p] == final[q], None, max(final) + 1)
    if not verdict.equivalent and rounds[-1][p] != rounds[-1][q]:
        verdict.formula = _distinguish(refined, rounds, p, q, moves)
    return verdict


def weak_bisim_check(
    l1: Lts, l2: Lts, saturation_budget: int | None = None
) -> EquivalenceVerdict:
    """Decide weak bisimilarity of the initial states.

    On failure the verdict carries a weak Hennessy-Milner formula
    holding at l1's initial state and failing at l2's, or None when the
    two separate only after MAX_FORMULA_ROUNDS refinement rounds.  The
    saturation budget bounds the signature entries of one weak round
    (see _weak_signatures).
    """
    for lts in (l1, l2):
        _require_resolved(lts, "weak_bisim_check")
    union, i1, i2 = _disjoint_union(l1, l2)
    # Branching bisimilarity implies weak bisimilarity, so a pair the
    # branching blocks merge needs no quotient and no round.  Otherwise
    # strong bisimilarity on the saturated branching quotient is weak
    # bisimilarity on the union, and the weak rounds on the quotient
    # are that refinement's rounds.
    block, n_blocks = _branching_blocks(union)
    if block[i1] == block[i2]:
        return EquivalenceVerdict(True, None, n_blocks)
    reduced = _quotient(union, block, n_blocks)
    return _verdict(reduced, block[i1], block[i2], _weak_signatures(reduced, saturation_budget),
                    _weak_moves(reduced))


def strong_bisim_check(l1: Lts, l2: Lts) -> EquivalenceVerdict:
    """Strong bisimilarity of the initial states (no saturation)."""
    for lts in (l1, l2):
        _require_resolved(lts, "strong_bisim_check")
    union, i1, i2 = _disjoint_union(l1, l2)
    return _verdict(union, i1, i2, _strong_signatures(union))


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------


def _distinguish(
    lts: Lts, rounds: list[list[int]], p: int, q: int,
    moves: Callable[[int], Iterable[tuple[int, int]]] | None = None,
) -> WeakFormula:
    """Formula true at p and false at q, built from the refinement
    history over moves(s), each state's (label, target) moves: its row
    in lts by default (strong moves, or weak ones on a saturated lts),
    its weak moves from _weak_moves in the weak check.  Depth
    minimality is not claimed.  Equal subformulas are made one object,
    so comparing them is shallow."""
    made: dict[WeakFormula, WeakFormula] = {}
    rows: dict[int, list[tuple[int, int]]] = {}

    def node(f: WeakFormula) -> WeakFormula:
        return made.setdefault(f, f)

    def row(s: int) -> list[tuple[int, int]]:
        if s not in rows:
            rows[s] = [t[:2] for t in lts.trans[s]] if moves is None else list(moves(s))
        return rows[s]

    def signature(s: int, parts: list[int]) -> set[tuple[int, int]]:
        return {(label, parts[u]) for label, u in row(s)}

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
            return node(Not(dist(b, a)))
        label_idx, target_block = forward[0]
        label = lts.labels[label_idx]
        witness = min(u for l, u in row(a) if l == label_idx and prev[u] == target_block)
        rivals = sorted({u for l, u in row(b) if l == label_idx})
        if not rivals:
            return node(Dia(label, node(Tt())))
        subs = list(dict.fromkeys([dist(witness, r) for r in rivals]))
        body = subs[0] if len(subs) == 1 else node(And(tuple(subs)))
        return node(Dia(label, body))

    try:  # dist holds its own cell: clearing it breaks the cycle
        return dist(p, q)
    finally:
        del dist
