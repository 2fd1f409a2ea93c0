"""Finite labeled transition systems and the static operators over them.

Labels are strings: ``tau`` is the invisible action, visible labels
are dotted names (``C.action``), possibly composed with ``#`` into
fresh synchronization names, possibly suffixed ``_exception``.  Each
Lts keeps them in a sorted label table, and each of its transitions
is a plain tuple of four ints, (label, target, exc_label, exc_target),
whose label fields index that table.  The operators below map those
indices (hiding maps a label to tau, relabeling renames a table entry)
and all end in one canonicalizing step, _canonical, so only build_lts
and generate_lts, which intern label strings into tables of their own,
read label strings from outside.  An operator that already builds over
the final table, as parallel does, leaves that step only the sorting of
its rows.  One state table, _States, numbers the states that
generate_lts and parallel's exploration, _product, discover; _product
keys its states by int and reads its operands' rows in place.  One
pass, restrict(), renames labels, hides them and resolves
semi-synchronous moves; relabel(), hide() and resolve() are its three
special cases.  A composition step given keep and pending names runs
that pass inside parallel, so its product is explored, hidden,
resolved and sorted through one _canonical call.

A transition is either normal (exc_label and exc_target are -1) or
semi-synchronous (exc_target >= 0).  A semi-synchronous transition
carries two continuations: the success target (the implicit success
variable set to true) and the exception target (success set to
false).  Inside parallel composition the exception target is taken,
under the transition's exception label, exactly when the other side
offers no transition on the shared name; this encodes the
negative-premise exception rules for semi-synchronous interactions.
Where no further composition can consume them (at top level, or once
their label is hidden), semi-synchronous transitions are resolved to
their success target.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .diagnostics import StateLimitExceeded

TAU = "tau"
EXCEPTION_SUFFIX = "_exception"

DEFAULT_STATE_LIMIT = 1_000_000


def is_exception(label: str) -> bool:
    return label.endswith(EXCEPTION_SUFFIX)


def exception_label(label: str) -> str:
    """Exception name for an interaction in dot notation."""
    return label + EXCEPTION_SUFFIX


# One transition: (label, target, exc_label, exc_target), as above.
Move = tuple[int, int, int, int]

_LABEL = itemgetter(0)
_EXC_LABEL = itemgetter(2)
_EXC_TARGET = itemgetter(3)
_LABEL_TARGET = itemgetter(0, 1)

Rows = Sequence[Sequence[Move]]  # rows[s]: state s's moves
# A system as _product explores it: (labels, rows, initial, marked).
Raw = tuple[Sequence[str], Rows, int, "frozenset[int] | set[int]"]


@dataclass(frozen=True)
class Lts:
    """A finite LTS in canonical form: ``labels`` holds tau first and
    then every other label in use, sorted; ``trans[s]`` holds state s's
    transitions, each a plain Move tuple, sorted and free of
    duplicates, so tau moves come first and structurally equal systems
    compare equal.

    The constructor does not check this form; every construction ends
    in _canonical, the constructor's only caller, which establishes it
    or, where the caller's rows already have it, keeps them.  Code that
    walks rows (the tau-SCC search, the weak rounds, weak moves)
    relies on the sorted order."""

    labels: tuple[str, ...]  # labels[0] is always tau
    initial: int
    trans: tuple[tuple[Move, ...], ...]
    marked: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        assert self.labels and self.labels[0] == TAU
        assert 0 <= self.initial < self.n_states

    @property
    def n_states(self) -> int:
        return len(self.trans)

    def has_semisync(self) -> bool:
        return max(map(_EXC_TARGET, chain.from_iterable(self.trans)), default=-1) >= 0

    def transition_view(self) -> list[tuple[int, str, int, str | None, int | None]]:
        """Label-resolved transitions, for tests, debugging and the DOT
        output of ``padlver lts --dot-out``."""
        name = self.labels + (None,)  # a normal move's exc_label, -1, names None
        return [(s, name[l], d, name[el], ed if ed >= 0 else None)
                for s, row in enumerate(self.trans) for l, d, el, ed in row]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _acyclic(build):
    """Run `build` with the cyclic garbage collector paused.  What the
    builders below make is acyclic and freed by reference counting, so
    the collections a large build triggers reclaim nothing, and the
    full ones land wherever the allocation count falls.  The two
    deadlock drivers in topology run under it as a whole, since all
    they build is acyclic too: otherwise the first collections after a
    build traverse every row it made.  A cycle made while paused lives
    until a collection after the call returns."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_acyclic
def _canonical(
    names: Sequence[str],
    rows: Sequence[Sequence[Move]],
    initial: int,
    marked: frozenset[int] | set[int],
    exc_names: Sequence[str] | None = None,
    *,
    ordered: bool = False,
) -> Lts:
    """The one path every constructed Lts ends in.

    rows[s] holds state s's transitions as Move tuples.  Label fields
    index ``names`` and exc_label fields index ``exc_names`` (``names``
    when omitted); both tables may repeat a name and may hold unused
    ones, and a name mapped to tau makes its transitions tau steps.
    Unused names are dropped, the rest sorted after tau, the indices
    remapped by name, and each row deduplicated and sorted, all in one
    comprehension per row.

    What the caller's rows already satisfy is skipped.  When ``names``
    alone is the final table, tau and then distinct names in sorted
    order every one of which fires, no index moves and each row is
    only deduplicated and sorted: parallel, the quotients and saturate
    build over such a table.  ``ordered`` promises that, and also that
    every row is sorted and free of duplicates, so the rows are kept as
    they are (the disjoint union of two canonical systems)."""
    if ordered:
        return Lts(tuple(names), initial, tuple(map(tuple, rows)), frozenset(marked))
    flat = chain.from_iterable
    used = set(map(_LABEL, flat(rows)))
    used_exc = set(map(_EXC_LABEL, flat(rows)))
    used_exc.discard(-1)
    if exc_names is None:
        if _is_table(names) and len(used.union(used_exc, (0,))) == len(names):
            trans = tuple(map(tuple, map(sorted, map(set, rows))))
            return Lts(tuple(names), initial, trans, frozenset(marked))
        exc_names = names
    in_use = {names[i] for i in used} | {exc_names[i] for i in used_exc}
    in_use.discard(TAU)
    labels = (TAU,) + tuple(sorted(in_use))
    position = {name: i for i, name in enumerate(labels)}
    remap = [position.get(name, -1) for name in names]
    # The trailing -1 keeps exc_label -1 (a normal transition) at -1.
    remap_exc = [position.get(name, -1) for name in exc_names] + [-1]
    trans = tuple([tuple(sorted({(remap[l], d, remap_exc[el], ed) for l, d, el, ed in row}))
                   for row in rows])
    return Lts(labels, initial, trans, frozenset(marked))


def _is_table(names: Sequence[str]) -> bool:
    """Whether names is tau and then distinct names in sorted order."""
    rest = names[1:]
    return names[0] == TAU and TAU not in rest and all(map(str.__lt__, rest, rest[1:]))


def _merged_table(*tables: Sequence[str]) -> tuple[str, ...]:
    """Tau, then every other name of the given tables, sorted: the
    label table of a system built from systems with these tables, when
    every label of theirs still fires in it."""
    return (TAU,) + tuple(sorted(set().union(*(table[1:] for table in tables))))


def _reindexed(
    lts: Lts, position: dict[str, int], shift: int = 0
) -> tuple[tuple[Move, ...], ...]:
    """lts's rows over a larger table: label indices mapped by name
    through position, targets shifted by shift.  The table keeps lts's
    labels in their order (as _merged_table does), so the rows stay
    sorted and free of duplicates; they are lts.trans itself when no
    index moves."""
    index = [position[name] for name in lts.labels]
    if not shift and index == list(range(len(index))):
        return lts.trans
    index.append(-1)  # keeps a normal move's exc_label at -1
    return tuple([
        tuple([(index[l], d + shift, index[el], ed + shift if ed >= 0 else -1)
               for l, d, el, ed in row])
        for row in lts.trans
    ])


def build_lts(
    n_states: int,
    initial: int,
    transitions: list[tuple[int, str, int] | tuple[int, str, int, str, int]],
    marked: frozenset[int] | set[int] = frozenset(),
) -> Lts:
    """Assemble an Lts from label-resolved transitions.

    Triples (src, label, dst) are normal transitions; quintuples
    (src, label, ok, exc_label, exc) are semi-synchronous.  This is the
    entry for labels given as strings (AUT input, hand-built systems);
    the operators below map label indices instead.
    """
    index = {TAU: 0}  # label -> its index; its keys are the label table
    rows: list[list[Move]] = [[] for _ in range(n_states)]
    for item in transitions:
        if len(item) == 5:
            src, label, ok, exc_label, exc = item
            rows[src].append((index.setdefault(label, len(index)), ok,
                              index.setdefault(exc_label, len(index)), exc))
        else:
            src, label, dst = item
            rows[src].append((index.setdefault(label, len(index)), dst, -1, -1))
    return _canonical(list(index), rows, initial, marked)


class _States(dict):
    """States by key, numbered in discovery order, which makes every
    construction reproducible.  Looking up an unseen key numbers it,
    records its key and opens its row, so a state that is already known
    costs one dict lookup and no call."""

    def __init__(self, state_limit: int) -> None:
        self.state_limit = state_limit
        self.order: list[object] = []  # order[s]: state s's key
        self.rows: list[list[Move]] = []  # rows[s]: state s's moves

    def __missing__(self, key: object) -> int:
        idx = len(self.order)
        if idx >= self.state_limit:
            # Rows keep duplicates, so this counts every transition added.
            raise StateLimitExceeded(self.state_limit, idx, sum(map(len, self.rows)))
        self[key] = idx
        self.order.append(key)
        self.rows.append([])
        return idx


# ---------------------------------------------------------------------------
# Static operators
# ---------------------------------------------------------------------------


@_acyclic
def parallel(
    left: Lts,
    right: Lts,
    sync_set: set[str] | frozenset[str],
    state_limit: int = DEFAULT_STATE_LIMIT,
    *,
    keep: Iterable[str] | None = None,
    pending: Iterable[str] = (),
) -> Lts:
    """Parallel composition forcing synchronization on sync_set: the
    canonical form of _product.

    Labels outside the set interleave.  A label in the set fires only
    jointly.  When one side offers a semi-synchronous transition on a
    shared name and the other side offers nothing on that name, the
    composition emits the exception transition instead, moving only the
    semi-synchronous side to its exception continuation.  A joint move
    of a semi-synchronous transition with a normal one stays
    semi-synchronous (a later party of a multiway synchronization may
    still be missing); a joint move of two semi-synchronous transitions
    succeeds on both sides.

    The product is built over its final label table: tau, then the
    sorted union of both operands' other labels.  Each operand's label
    indices are mapped into it (see _product), so _canonical only sorts
    and deduplicates the rows.  The full remap by name runs only when
    some label of that table never fires in the product (a sync name
    that only one side offers, or a label whose moves cannot be
    reached), and drops it.

    keep, when given, restricts the product in the same _canonical
    call: parallel(l, r, s, keep=k, pending=p) is restrict(parallel(l,
    r, s), k, p), so a composition step is explored, hidden and
    resolved in one canonical pass."""
    fields = (left.labels, left.trans, left.initial, left.marked)
    labels, rows, initial, marked = _product(fields, right, sync_set, state_limit)
    if keep is None:
        return _canonical(labels, rows, initial, marked)
    names, rows = _hidden(labels, rows, keep, pending)
    return _canonical(names, rows, initial, marked, exc_names=labels)


@_acyclic
def _product(left: Raw, right: Lts, sync_set: Iterable[str],
             state_limit: int = DEFAULT_STATE_LIMIT) -> Raw:
    """parallel's exploration, before _canonical: the product's label
    table, its rows (unsorted, with duplicates, semi-synchronous moves
    unresolved), its initial state and its marked states.  left is in
    that raw form too (parallel passes an Lts's fields), so products
    chain without _canonical; its labels need not all fire.

    The pair of left state ls and right state rs is keyed by the int
    ls * right.n_states + rs, and states are numbered and explored in
    discovery order.  Left's rows, the large accumulated operand's, are
    read in place, each label field mapped into the product's table
    through one index list; right's are mapped once, and each right
    state's shared moves are grouped by label once."""
    bad = {name for name in sync_set if name == TAU or is_exception(name)}
    if bad:
        raise ValueError(f"sync set may not contain tau or exception labels: {sorted(bad)}")

    left_labels, left_trans, left_initial, left_marked = left
    # Over one table a joint move's label is the same index on both sides.
    labels = _merged_table(left_labels, right.labels)
    position = {name: i for i, name in enumerate(labels)}
    index = [position[name] for name in left_labels]
    index.append(-1)  # keeps a normal move's exc_label at -1
    right_trans = _reindexed(right, position)
    sync = frozenset(position[name] for name in sync_set if name in position)
    partners_of: list[dict[int, list[Move]]] = []  # [rs]: shared label -> moves
    for row in right_trans:
        partners: dict[int, list[Move]] = {}
        for move in row:
            if move[0] in sync:
                partners.setdefault(move[0], []).append(move)
        partners_of.append(partners)

    width = right.n_states
    seen = _States(state_limit)
    init = seen[left_initial * width + right.initial]
    rows = seen.rows
    for src, key in enumerate(seen.order):  # the BFS queue; the loop appends
        ls, rs = divmod(key, width)
        here = key - rs  # the key of (ls, 0): right moves alone
        append = rows[src].append
        partners = partners_of[rs]

        # Left side: interleaving and joint moves.
        offered = set()  # the shared labels left offers here
        for l, d, el, ed in left_trans[ls]:
            l = index[l]
            d *= width  # the key of (d, 0)
            if l not in sync:
                if ed >= 0:
                    append((l, seen[d + rs], index[el], seen[ed * width + rs]))
                else:
                    append((l, seen[d + rs], -1, -1))
                continue
            offered.add(l)
            moves = partners.get(l)
            if not moves:
                if ed >= 0:
                    append((index[el], seen[ed * width + rs], -1, -1))
                continue
            for _, rd, rel, red in moves:
                if ed >= 0 and red >= 0:
                    append((l, seen[d + rd], -1, -1))
                elif ed >= 0:
                    append((l, seen[d + rd], index[el], seen[ed * width + rs]))
                elif red >= 0:
                    append((l, seen[d + rd], rel, seen[here + red]))
                else:
                    append((l, seen[d + rd], -1, -1))

        # Right side: interleaving, plus exceptions for unmatched semisync.
        for r, d, el, ed in right_trans[rs]:
            if r not in sync:
                if ed >= 0:
                    append((r, seen[here + d], el, seen[here + ed]))
                else:
                    append((r, seen[here + d], -1, -1))
            elif r not in offered and ed >= 0:
                append((el, seen[here + ed], -1, -1))

    marked = set()
    if left_marked or right.marked:
        marked = {s for s, key in enumerate(seen.order)
                  if key // width in left_marked or key % width in right.marked}
    return labels, rows, init, marked


def _renamed(labels: Sequence[str], mapping: dict[str, str]) -> list[str]:
    """labels under relabel's renaming, checked as relabel states."""
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

    mapped = [apply(name) for name in labels]
    collisions: dict[str, str] = {}
    for orig, new in zip(labels, mapped):
        if new in collisions and collisions[new] != orig:
            raise ValueError(f"relabeling collides on '{new}'")
        collisions[new] = orig
    return mapped


def _hidden(
    labels: Sequence[str], rows: Rows, keep: Iterable[str], pending: Iterable[str]
) -> tuple[list[str], Rows]:
    """restrict's pass over a label table and its rows: the table with
    every label outside keep and pending mapped to tau, and the rows
    with every semi-synchronous move whose label is not pending
    resolved to its success target (rows itself when none is)."""
    pending = set(pending)
    visible = pending.union(keep)
    names = [name if name in visible else TAU for name in labels]
    settled = [name not in pending for name in labels]
    if any(settled) and max(map(_EXC_TARGET, chain.from_iterable(rows)), default=-1) >= 0:
        # Tuples, so that an unchanged system compares equal to its rows;
        # a move that stays is shared, not copied (peak memory).
        rows = tuple([
            tuple([(move[0], move[1], -1, -1) if move[3] >= 0 and settled[move[0]] else move
                   for move in row])
            for row in rows
        ])
    return names, rows


def restrict(
    lts: Lts,
    keep: Iterable[str],
    pending: Iterable[str] = frozenset(),
    *,
    rename: dict[str, str] | None = None,
) -> Lts:
    """The one hiding and resolving pass: labels outside keep and
    pending become tau, and every semi-synchronous move whose label is
    not pending is resolved to its success target.

    pending names the labels later compositions still synchronize on:
    they stay visible, and their semi-synchronous moves keep their
    exception targets.  No later composition can raise an exception on
    any other name, so resolving those moves now is what resolving at
    the end would do.  rename, when given, renames the labels first, as
    relabel does, and keep and pending name labels after it.  Returns
    lts itself when no label is renamed or hidden and no move is
    resolved.  A composition step restricts inside parallel instead,
    in the product's one canonical pass."""
    labels = lts.labels if rename is None else _renamed(lts.labels, rename)
    names, rows = _hidden(labels, lts.trans, keep, pending)
    if names == list(lts.labels) and rows == lts.trans:
        return lts
    # Exception names stay: a pending move raises its exception under
    # its own name even when that name is hidden or renamed as a label.
    return _canonical(names, rows, lts.initial, lts.marked, exc_names=lts.labels)


def relabel(lts: Lts, mapping: dict[str, str]) -> Lts:
    """Injective relabeling.  tau may not be mapped.

    Exception pairing is preserved on transition labels: mapping x to y
    implicitly maps x_exception to y_exception unless overridden.  The
    exception-name metadata of semi-synchronous transitions is left
    untouched: the name an exception will take is fixed once and for
    all by the interaction it belongs to, while synchronization names
    change with every composition context.  restrict's third special
    case: every renamed label stays visible and pending.
    """
    return restrict(lts, (), _renamed(lts.labels, mapping), rename=mapping)


def hide(
    lts: Lts, keep_only: set[str] | frozenset[str], rename: dict[str, str] | None = None
) -> Lts:
    """Hiding: every label outside keep_only becomes tau.  A
    semi-synchronous move whose label is hidden can no longer raise an
    exception in any context, so it degrades to a tau move to its
    success target.  rename, when given, relabels first in the same
    pass: hide(lts, keep_only, rename) is hide(relabel(lts, rename),
    keep_only)."""
    return restrict(lts, keep_only, keep_only, rename=rename)


def resolve(lts: Lts) -> Lts:
    """Resolve remaining semi-synchronous transitions to their success
    continuation.  In isolation a semi-synchronous interaction succeeds;
    the exception continuation is only reachable through composition."""
    return restrict(lts, lts.labels)


# ---------------------------------------------------------------------------
# Deadlocks
# ---------------------------------------------------------------------------


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
    _require_resolved(lts, "find_deadlocks")
    return _deadlocks(lts.trans, lts.initial, notion)


def shortest_trace(lts: Lts, targets: frozenset[int]) -> list[str]:
    """Labels along a shortest path from the initial state to any target."""
    _require_resolved(lts, "shortest_trace")
    return _trace(lts.labels, lts.trans, lts.initial, targets)


def _deadlocks(rows: Rows, initial: int, notion: str) -> frozenset[int]:
    """find_deadlocks over rows as resolve() would leave them: a move is
    its label and success target, its exception fields are ignored, and
    rows may be unsorted and hold duplicates, as _product's raw rows do."""
    if notion not in ("weak", "strict"):
        raise ValueError(f"unknown deadlock notion {notion!r}")
    seen = [False] * len(rows)
    seen[initial] = True
    order = [initial]  # reachable states in BFS order; the loop appends
    for s in order:
        for _, d, _, _ in rows[s]:
            if not seen[d]:
                seen[d] = True
                order.append(d)
    if notion == "strict":
        return frozenset(s for s in order if not rows[s])

    # A state with a visible move is live; so is a silent one (all its
    # moves are tau) that reaches a live one: found walking tau edges back.
    live = seen
    rev_tau: dict[int, list[int]] = {}
    for s in order:
        row = rows[s]
        if not any(map(_LABEL, row)):
            live[s] = False
            for _, d, _, _ in row:
                rev_tau.setdefault(d, []).append(s)
    work = [d for d in rev_tau if live[d]]
    for s in work:  # the loop appends
        for p in rev_tau.get(s, ()):
            if not live[p]:
                live[p] = True
                work.append(p)
    return frozenset(s for s in order if not live[s])


def _trace(labels: Sequence[str], rows: Rows, initial: int, targets: frozenset[int]) -> list[str]:
    """shortest_trace over rows as _deadlocks takes them.  Each row's
    distinct (label, target) pairs are visited in sorted order, the row
    order of the resolved canonical system, so over a table sorted
    after tau (a product's or an Lts's) the trace is that system's."""
    if initial in targets:
        return []
    parent: dict[int, tuple[int, int]] = {initial: (-1, 0)}
    queue = [initial]
    for s in queue:  # the loop appends
        for l, d in sorted(set(map(_LABEL_TARGET, rows[s]))):
            if d in parent:
                continue
            parent[d] = (s, l)
            if d in targets:
                trace: list[str] = []
                while d != initial:
                    d, l = parent[d]
                    trace.append(labels[l])
                return trace[::-1]
            queue.append(d)
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
        for l, d, el, ed in ts:
            lines.append((src, lts.labels[l], d))
            if ed >= 0:
                lines.append((src, lts.labels[el], ed))
    lines.sort()
    body = [f'({src}, "{label}", {dst})' for src, label, dst in lines]
    header = f"des ({lts.initial}, {len(body)}, {lts.n_states})"
    return "\n".join([header] + body) + "\n"


def read_aut(text: str) -> Lts:
    """Parse Aldebaran format as written by write_aut.  A header that
    announces more than DEFAULT_STATE_LIMIT states raises
    StateLimitExceeded before any state is allocated.

    Only the states reachable from the initial state are kept, in their
    relative order, so the cost is bounded by the file's size and not
    by the header's state count; a file whose states are all reachable
    reads back unchanged."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("des"):
        raise ValueError("not an AUT file: missing 'des' header")
    header = lines[0][3:].strip()
    if not (header.startswith("(") and header.endswith(")")):
        raise ValueError("malformed AUT header")
    try:
        initial, n_trans, n_states = (int(p) for p in header[1:-1].split(","))
    except ValueError:
        raise ValueError("malformed AUT header") from None
    if n_states > DEFAULT_STATE_LIMIT:
        raise StateLimitExceeded(DEFAULT_STATE_LIMIT, n_states, 0)
    triples: list[tuple[int, str, int]] = []
    for line in lines[1:]:
        src, label, dst = _aut_transition(line)
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise ValueError(f"AUT transition out of range: {line!r}")
        triples.append((src, label, dst))
    if len(triples) != n_trans:
        raise ValueError(
            f"AUT header announces {n_trans} transitions, file has {len(triples)}"
        )
    if not 0 <= initial < n_states:
        raise ValueError("AUT initial state out of range")
    successors: dict[int, list[int]] = {}
    for src, _, dst in triples:
        successors.setdefault(src, []).append(dst)
    reached = {initial}
    work = [initial]
    while work:
        for dst in successors.get(work.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                work.append(dst)
    number = {s: k for k, s in enumerate(sorted(reached))}
    return build_lts(len(number), number[initial], [
        (number[src], label, number[dst]) for src, label, dst in triples if src in number
    ])


def _aut_transition(line: str) -> tuple[int, str, int]:
    """The source, label and target of one AUT transition line,
    ``(src, "label", dst)``; the label may hold commas."""
    inner = line[1:-1]
    first_comma = inner.find(",")
    last_comma = inner.rfind(",")
    if line.startswith("(") and line.endswith(")") and first_comma < last_comma:
        label = inner[first_comma + 1 : last_comma].strip()
        if label.startswith('"') and label.endswith('"') and len(label) >= 2:
            label = label[1:-1]
        try:
            return int(inner[:first_comma]), label, int(inner[last_comma + 1 :])
        except ValueError:
            pass
    raise ValueError(f"malformed AUT transition: {line!r}")
