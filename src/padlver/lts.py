"""Finite labeled transition systems and the static operators over them.

Labels are plain strings: ``tau`` is the invisible action, visible
labels are dotted names (``C.action``), possibly composed with ``#``
into fresh synchronization names, possibly suffixed ``_exception``.

A transition is either normal or semi-synchronous.  A semi-synchronous
transition carries two continuations: the success target (the implicit
success variable set to true) and the exception target (success set to
false).  Inside parallel composition the exception target is taken,
under the transition's exception label, exactly when the other side
offers no transition on the shared name; this encodes the
negative-premise exception rules for semi-synchronous interactions.
At top level, where no further composition can consume them, remaining
semi-synchronous transitions are resolved to their success target by
resolve().
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .diagnostics import StateLimitExceeded

TAU = "tau"
EXCEPTION_SUFFIX = "_exception"

DEFAULT_STATE_LIMIT = 1_000_000


def is_exception(label: str) -> bool:
    return label.endswith(EXCEPTION_SUFFIX)


def exception_label(label: str) -> str:
    """Exception name for an interaction in dot notation."""
    return label + EXCEPTION_SUFFIX


@dataclass(frozen=True, slots=True, order=True)
class Transition:
    """One outgoing transition.  Label fields index the owning Lts label
    table; exc_label/exc_target are -1 on normal transitions."""

    label: int
    target: int
    exc_label: int = -1
    exc_target: int = -1

    @property
    def semisync(self) -> bool:
        return self.exc_target >= 0


@dataclass(frozen=True)
class Lts:
    labels: tuple[str, ...]  # labels[0] is always tau
    n_states: int
    initial: int
    trans: tuple[tuple[Transition, ...], ...]
    marked: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        assert self.labels and self.labels[0] == TAU
        assert 0 <= self.initial < self.n_states

    def label_of(self, t: Transition) -> str:
        return self.labels[t.label]

    def exc_label_of(self, t: Transition) -> str:
        return self.labels[t.exc_label]

    def visible_labels(self) -> set[str]:
        """Labels of transitions reachable from the initial state, tau excluded."""
        seen = set()
        for s in reachable_states(self):
            for t in self.trans[s]:
                if t.label != 0:
                    seen.add(self.labels[t.label])
                if t.semisync:
                    seen.add(self.labels[t.exc_label])
        return seen

    def has_semisync(self) -> bool:
        return any(t.semisync for ts in self.trans for t in ts)

    def transition_view(self) -> list[tuple[int, str, int, str | None, int | None]]:
        """Label-resolved transitions, convenient for tests and debugging."""
        out = []
        for s, ts in enumerate(self.trans):
            for t in ts:
                if t.semisync:
                    out.append((s, self.labels[t.label], t.target,
                                self.labels[t.exc_label], t.exc_target))
                else:
                    out.append((s, self.labels[t.label], t.target, None, None))
        return out


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_lts(
    n_states: int,
    initial: int,
    transitions: list[tuple[int, str, int] | tuple[int, str, int, str, int]],
    marked: frozenset[int] | set[int] = frozenset(),
) -> Lts:
    """Assemble an Lts from label-resolved transitions.

    Triples (src, label, dst) are normal transitions; quintuples
    (src, label, ok, exc_label, exc) are semi-synchronous.  The label
    table is canonicalized (tau first, the rest sorted) and each
    state's transitions are sorted and deduplicated, so structurally
    equal systems compare equal.
    """
    names: set[str] = set()
    for item in transitions:
        names.add(item[1])
        if len(item) == 5:
            names.add(item[3])
    names.discard(TAU)
    labels = (TAU,) + tuple(sorted(names))
    index = {name: i for i, name in enumerate(labels)}
    per_state: list[set[Transition]] = [set() for _ in range(n_states)]
    for item in transitions:
        if len(item) == 5:
            src, label, ok, exc_label, exc = item
            per_state[src].add(Transition(index[label], ok, index[exc_label], exc))
        else:
            src, label, dst = item
            per_state[src].add(Transition(index[label], dst))
    trans = tuple(tuple(sorted(ts)) for ts in per_state)
    return Lts(labels, n_states, initial, trans, frozenset(marked))


class LtsBuilder:
    """Incremental builder used by the breadth-first constructions.

    States are keyed by arbitrary hashable values and numbered in
    discovery order, which makes every construction reproducible.
    """

    def __init__(self, state_limit: int = DEFAULT_STATE_LIMIT):
        self.state_limit = state_limit
        self._index: dict[object, int] = {}
        self._labels: list[str] = [TAU]
        self._label_index: dict[str, int] = {TAU: 0}
        self._trans: list[set[Transition]] = []
        self._marked: set[int] = set()
        self._n_transitions = 0

    def state(self, key: object) -> tuple[int, bool]:
        """Intern a state key; returns (index, is_new)."""
        idx = self._index.get(key)
        if idx is not None:
            return idx, False
        idx = len(self._index)
        if idx >= self.state_limit:
            raise StateLimitExceeded(self.state_limit, idx, self._n_transitions)
        self._index[key] = idx
        self._trans.append(set())
        return idx, True

    def label(self, name: str) -> int:
        idx = self._label_index.get(name)
        if idx is None:
            idx = len(self._labels)
            self._labels.append(name)
            self._label_index[name] = idx
        return idx

    def mark(self, state: int) -> None:
        self._marked.add(state)

    def add(self, src: int, label: str, dst: int) -> None:
        self._trans[src].add(Transition(self.label(label), dst))
        self._n_transitions += 1

    def add_semisync(self, src: int, label: str, ok: int, exc_label: str, exc: int) -> None:
        self._trans[src].add(
            Transition(self.label(label), ok, self.label(exc_label), exc)
        )
        self._n_transitions += 1

    def finish(self, initial: int) -> Lts:
        order = sorted(range(1, len(self._labels)), key=lambda i: self._labels[i])
        labels = (TAU,) + tuple(self._labels[i] for i in order)
        remap = {0: 0}
        for new, old in enumerate(order, start=1):
            remap[old] = new
        trans = tuple(
            tuple(
                sorted(
                    Transition(
                        remap[t.label],
                        t.target,
                        remap.get(t.exc_label, -1),
                        t.exc_target,
                    )
                    for t in ts
                )
            )
            for ts in self._trans
        )
        return Lts(labels, len(self._trans), initial, trans, frozenset(self._marked))


# ---------------------------------------------------------------------------
# Static operators
# ---------------------------------------------------------------------------


def parallel(
    left: Lts,
    right: Lts,
    sync_set: set[str] | frozenset[str],
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Lts:
    """Parallel composition forcing synchronization on sync_set.

    Labels outside the set interleave.  A label in the set fires only
    jointly.  When one side offers a semi-synchronous transition on a
    shared name and the other side offers nothing on that name, the
    composition emits the exception transition instead, moving only the
    semi-synchronous side to its exception continuation.  A joint move
    of a semi-synchronous transition with a normal one stays
    semi-synchronous (a later party of a multiway synchronization may
    still be missing); a joint move of two semi-synchronous transitions
    succeeds on both sides.
    """
    bad = {name for name in sync_set if name == TAU or is_exception(name)}
    if bad:
        raise ValueError(f"sync set may not contain tau or exception labels: {sorted(bad)}")

    sync_left = frozenset(i for i, name in enumerate(left.labels) if name in sync_set)
    sync_right = frozenset(i for i, name in enumerate(right.labels) if name in sync_set)

    builder = LtsBuilder(state_limit)
    queue: deque[tuple[int, int]] = deque()

    def visit(key: tuple[int, int]) -> int:
        idx, new = builder.state(key)
        if new:
            if key[0] in left.marked or key[1] in right.marked:
                builder.mark(idx)
            queue.append(key)
        return idx

    init = visit((left.initial, right.initial))

    while queue:
        ls, rs = queue.popleft()
        src, _ = builder.state((ls, rs))
        right_by_name: dict[str, list[Transition]] = {}
        for t in right.trans[rs]:
            if t.label in sync_right:
                right_by_name.setdefault(right.labels[t.label], []).append(t)

        # Left side: interleaving and joint moves.
        for t in left.trans[ls]:
            name = left.labels[t.label]
            if t.label not in sync_left:
                if t.semisync:
                    builder.add_semisync(
                        src, name, visit((t.target, rs)),
                        left.labels[t.exc_label], visit((t.exc_target, rs)),
                    )
                else:
                    builder.add(src, name, visit((t.target, rs)))
                continue
            partners = right_by_name.get(name, [])
            if not partners:
                if t.semisync:
                    builder.add(
                        src, left.labels[t.exc_label], visit((t.exc_target, rs))
                    )
                continue
            for rt in partners:
                if t.semisync and rt.semisync:
                    builder.add(src, name, visit((t.target, rt.target)))
                elif t.semisync:
                    builder.add_semisync(
                        src, name, visit((t.target, rt.target)),
                        left.labels[t.exc_label], visit((t.exc_target, rs)),
                    )
                elif rt.semisync:
                    builder.add_semisync(
                        src, name, visit((t.target, rt.target)),
                        right.labels[rt.exc_label], visit((ls, rt.exc_target)),
                    )
                else:
                    builder.add(src, name, visit((t.target, rt.target)))

        # Right side: interleaving, plus exceptions for unmatched semisync.
        left_names = {
            left.labels[t.label] for t in left.trans[ls] if t.label in sync_left
        }
        for t in right.trans[rs]:
            name = right.labels[t.label]
            if t.label not in sync_right:
                if t.semisync:
                    builder.add_semisync(
                        src, name, visit((ls, t.target)),
                        right.labels[t.exc_label], visit((ls, t.exc_target)),
                    )
                else:
                    builder.add(src, name, visit((ls, t.target)))
            elif name not in left_names and t.semisync:
                builder.add(src, right.labels[t.exc_label], visit((ls, t.exc_target)))

    return builder.finish(init)


def expand_semisync(lts: Lts) -> Lts:
    """Encode each semi-synchronous transition as its two potential
    moves (success label and exception label) as ordinary transitions.
    Used by tests that compare compositions structurally."""
    triples: list[tuple] = []
    for src, ts in enumerate(lts.trans):
        for t in ts:
            triples.append((src, lts.labels[t.label], t.target))
            if t.semisync:
                triples.append((src, lts.labels[t.exc_label], t.exc_target))
    return build_lts(lts.n_states, lts.initial, triples, lts.marked)


def hide(
    lts: Lts,
    hide_set: set[str] | frozenset[str] | None = None,
    keep_only: set[str] | frozenset[str] | None = None,
) -> Lts:
    """Hiding: matched labels become tau.

    Exactly one of hide_set / keep_only must be given; keep_only hides
    the complement of the given visible set.  A semi-synchronous
    transition whose label is hidden can no longer raise an exception in
    any context, so it degrades to a normal tau transition to its
    success target.
    """
    if (hide_set is None) == (keep_only is None):
        raise ValueError("exactly one of hide_set / keep_only must be given")

    def hidden(name: str) -> bool:
        if name == TAU:
            return False
        if hide_set is not None:
            return name in hide_set
        return name not in keep_only

    triples: list[tuple] = []
    for src, ts in enumerate(lts.trans):
        for t in ts:
            name = lts.labels[t.label]
            if t.semisync:
                if hidden(name):
                    triples.append((src, TAU, t.target))
                else:
                    triples.append(
                        (src, name, t.target, lts.labels[t.exc_label], t.exc_target)
                    )
            else:
                triples.append((src, TAU if hidden(name) else name, t.target))
    return build_lts(lts.n_states, lts.initial, triples, lts.marked)


def relabel(lts: Lts, mapping: dict[str, str]) -> Lts:
    """Injective relabeling.  tau may not be mapped.

    Exception pairing is preserved on transition labels: mapping x to y
    implicitly maps x_exception to y_exception unless overridden.  The
    exception-name metadata of semi-synchronous transitions is left
    untouched: the name an exception will take is fixed once and for
    all by the interaction it belongs to, while synchronization names
    change with every composition context.
    """
    if TAU in mapping:
        raise ValueError("tau cannot be relabeled")
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise ValueError("relabeling map must be injective")

    def apply(name: str) -> str:
        if name in mapping:
            return mapping[name]
        if is_exception(name):
            base = name[: -len(EXCEPTION_SUFFIX)]
            if base in mapping:
                return exception_label(mapping[base])
        return name

    mapped = [apply(name) for name in lts.labels]
    collisions: dict[str, str] = {}
    for orig, new in zip(lts.labels, mapped):
        if new in collisions and collisions[new] != orig:
            raise ValueError(f"relabeling collides on '{new}'")
        collisions[new] = orig

    triples: list[tuple] = []
    for src, ts in enumerate(lts.trans):
        for t in ts:
            if t.semisync:
                triples.append(
                    (src, mapped[t.label], t.target,
                     lts.labels[t.exc_label], t.exc_target)
                )
            else:
                triples.append((src, mapped[t.label], t.target))
    return build_lts(lts.n_states, lts.initial, triples, lts.marked)


def resolve(lts: Lts) -> Lts:
    """Resolve remaining semi-synchronous transitions to their success
    continuation.  In isolation a semi-synchronous interaction succeeds;
    the exception continuation is only reachable through composition."""
    if not lts.has_semisync():
        return lts
    triples: list[tuple] = []
    for src, ts in enumerate(lts.trans):
        for t in ts:
            triples.append((src, lts.labels[t.label], t.target))
    return build_lts(lts.n_states, lts.initial, triples, lts.marked)


# ---------------------------------------------------------------------------
# Reachability and deadlocks
# ---------------------------------------------------------------------------


def reachable_states(lts: Lts) -> list[int]:
    """States reachable from the initial state, in BFS order."""
    seen = [False] * lts.n_states
    seen[lts.initial] = True
    order = [lts.initial]
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        for t in lts.trans[s]:
            for dst in (t.target, t.exc_target) if t.semisync else (t.target,):
                if not seen[dst]:
                    seen[dst] = True
                    order.append(dst)
                    queue.append(dst)
    return order


def _require_resolved(lts: Lts, op: str) -> None:
    if lts.has_semisync():
        raise ValueError(f"{op} requires a resolved LTS (apply resolve() first)")


def find_deadlocks(lts: Lts, notion: str = "weak") -> frozenset[int]:
    """Deadlocked reachable states.

    strict: no outgoing transitions at all.  weak: no visible label is
    reachable through any sequence of tau transitions (a tau-divergent
    dead end counts as deadlocked, matching what weak bisimilarity can
    observe).
    """
    if notion not in ("weak", "strict"):
        raise ValueError(f"unknown deadlock notion {notion!r}")
    _require_resolved(lts, "find_deadlocks")
    reachable = reachable_states(lts)
    if notion == "strict":
        return frozenset(s for s in reachable if not lts.trans[s])

    # Mark states that can perform a visible action, then walk tau edges
    # backwards; unmarked reachable states are weakly deadlocked.
    can_visible = [False] * lts.n_states
    rev_tau: list[list[int]] = [[] for _ in range(lts.n_states)]
    for s in range(lts.n_states):
        for t in lts.trans[s]:
            if t.label != 0:
                can_visible[s] = True
            else:
                rev_tau[t.target].append(s)
    queue = deque(s for s in range(lts.n_states) if can_visible[s])
    while queue:
        s = queue.popleft()
        for p in rev_tau[s]:
            if not can_visible[p]:
                can_visible[p] = True
                queue.append(p)
    return frozenset(s for s in reachable if not can_visible[s])


def shortest_trace(lts: Lts, targets: frozenset[int]) -> list[str]:
    """Labels along a shortest path from the initial state to any target."""
    if lts.initial in targets:
        return []
    parent: dict[int, tuple[int, str]] = {lts.initial: (-1, "")}
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        for t in lts.trans[s]:
            succ = [(t.target, lts.labels[t.label])]
            if t.semisync:
                succ.append((t.exc_target, lts.labels[t.exc_label]))
            for dst, label in succ:
                if dst in parent:
                    continue
                parent[dst] = (s, label)
                if dst in targets:
                    trace: list[str] = []
                    cur = dst
                    while cur != lts.initial:
                        prev, lab = parent[cur]
                        trace.append(lab)
                        cur = prev
                    return list(reversed(trace))
                queue.append(dst)
    raise ValueError("no target state is reachable")


# ---------------------------------------------------------------------------
# Aldebaran (AUT) import/export
# ---------------------------------------------------------------------------


def write_aut(lts: Lts) -> str:
    """Serialize in Aldebaran format.

    Semi-synchronous transitions are written as two lines, the success
    move under the plain label and the exception move under the
    exception label.  This is lossy for re-composition: reading the
    file back yields two ordinary transitions.
    """
    lines: list[tuple[int, str, int]] = []
    for src, ts in enumerate(lts.trans):
        for t in ts:
            lines.append((src, lts.labels[t.label], t.target))
            if t.semisync:
                lines.append((src, lts.labels[t.exc_label], t.exc_target))
    lines.sort()
    body = [f'({src}, "{label}", {dst})' for src, label, dst in lines]
    header = f"des ({lts.initial}, {len(body)}, {lts.n_states})"
    return "\n".join([header] + body) + "\n"


def read_aut(text: str) -> Lts:
    """Parse Aldebaran format as written by write_aut."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("des"):
        raise ValueError("not an AUT file: missing 'des' header")
    header = lines[0][3:].strip()
    if not (header.startswith("(") and header.endswith(")")):
        raise ValueError("malformed AUT header")
    parts = [p.strip() for p in header[1:-1].split(",")]
    if len(parts) != 3:
        raise ValueError("malformed AUT header")
    initial, n_trans, n_states = (int(p) for p in parts)
    triples: list[tuple[int, str, int]] = []
    for line in lines[1:]:
        if not (line.startswith("(") and line.endswith(")")):
            raise ValueError(f"malformed AUT transition: {line!r}")
        inner = line[1:-1]
        first_comma = inner.index(",")
        last_comma = inner.rindex(",")
        src = int(inner[:first_comma].strip())
        dst = int(inner[last_comma + 1 :].strip())
        label = inner[first_comma + 1 : last_comma].strip()
        if label.startswith('"') and label.endswith('"') and len(label) >= 2:
            label = label[1:-1]
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise ValueError(f"AUT transition out of range: {line!r}")
        triples.append((src, label, dst))
    if len(triples) != n_trans:
        raise ValueError(
            f"AUT header announces {n_trans} transitions, file has {len(triples)}"
        )
    if not 0 <= initial < n_states:
        raise ValueError("AUT initial state out of range")
    return build_lts(n_states, initial, triples)


# ---------------------------------------------------------------------------
# Small prefixed constructors, mostly for tests and documentation
# ---------------------------------------------------------------------------


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
    return build_lts(max(n, 1), 0, triples)


def renumber_bfs(lts: Lts) -> Lts:
    """Renumber states in breadth-first discovery order and drop
    unreachable ones; transitions keep their labels."""
    order = reachable_states(lts)
    remap = {old: new for new, old in enumerate(order)}
    triples: list[tuple] = []
    for old in order:
        src = remap[old]
        for t in lts.trans[old]:
            if t.semisync:
                triples.append(
                    (src, lts.labels[t.label], remap[t.target],
                     lts.labels[t.exc_label], remap[t.exc_target])
                )
            else:
                triples.append((src, lts.labels[t.label], remap[t.target]))
    marked = frozenset(remap[s] for s in lts.marked if s in remap)
    return build_lts(len(order), 0, triples, marked)
