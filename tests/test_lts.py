from __future__ import annotations

import gc
import random
import subprocess
import sys
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    from_traces,
    load_arch,
    minimize,
    random_lts,
    random_semisync_lts,
    reachable_part,
    reachable_states,
    renumber_bfs,
    visible_labels,
)
from padlver import build_lts, find_deadlocks, hide, parallel, read_aut, relabel, resolve, write_aut
from padlver import lts as lts_module
from padlver import topology
from padlver.diagnostics import StateLimitExceeded
from padlver.equivalence import (
    _disjoint_union,
    branching_quotient,
    saturate,
    strong_bisim_check,
)
from padlver.lts import (
    DEFAULT_STATE_LIMIT,
    TAU,
    is_exception,
    restrict,
    shortest_trace,
)
from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct


def test_constructed_systems_match_golden_digest():
    # tests/golden/lts_digest.txt holds the output of
    # `python3 tools/lts_digest.py .`: per benchmark input and fixture
    # capacity, one sha256 over the exact form of every AEI's pc and tc
    # semantics, one over the whole system and one over every check's
    # lhs and rhs, then a total.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "tools" / "lts_digest.py"), str(root)],
                          capture_output=True, check=True)
    assert done.stdout == (root / "tests" / "golden" / "lts_digest.txt").read_bytes()


def labels_of(lts):
    return sorted(set(visible_labels(lts)))


# -- parallel -----------------------------------------------------------------


def fields(lts):
    """lts in the raw form _product takes and returns."""
    return lts.labels, lts.trans, lts.initial, lts.marked


def test_forced_synchronization_then_deadlock():
    a = from_traces(("a",))
    joint = parallel(a, a, {"a"})
    view = [(s, l, d) for s, l, d, _, _ in joint.transition_view()]
    assert view == [(0, "a", 1)]
    assert find_deadlocks(joint, "strict") == {1}


def test_interleaving_diamond():
    d = parallel(from_traces(("a",)), from_traces(("b",)), set())
    assert d.n_states == 4
    assert len(d.transition_view()) == 4


def test_cross_waiting_deadlocks_immediately():
    q = parallel(from_traces(("a",)), from_traces(("b",)), {"a", "b"})
    assert q.n_states == 1
    assert find_deadlocks(q, "weak") == {q.initial}


def test_sync_set_rejects_tau_and_exceptions():
    a = from_traces(("a",))
    with pytest.raises(ValueError):
        parallel(a, a, {"tau"})
    with pytest.raises(ValueError):
        parallel(a, a, {"x_exception"})


def test_semisync_exception_fires_only_when_partner_not_ready():
    send = build_lts(3, 0, [(0, "x", 1, "C.o_exception", 2)])
    silent = build_lts(1, 0, [])
    blocked = parallel(send, silent, {"x"})
    assert [(s, l, d) for s, l, d, _, _ in blocked.transition_view()] == [
        (0, "C.o_exception", 1)
    ]
    ready = from_traces(("x",))
    joint = parallel(send, ready, {"x"})
    (tr,) = joint.transition_view()
    assert tr[1] == "x" and tr[3] == "C.o_exception"  # still semisync


def test_two_semisync_partners_succeed_jointly():
    left = build_lts(3, 0, [(0, "x", 1, "L.o_exception", 2)])
    right = build_lts(3, 0, [(0, "x", 1, "R.i_exception", 2)])
    joint = parallel(left, right, {"x"})
    view = joint.transition_view()
    assert [(s, l, d) for s, l, d, e, _ in view if e is None] == [(0, "x", 1)]
    assert not any(e for _, _, _, e, _ in view)


def reference_product(left, right, sync, with_pairs=False):
    """Straight-from-the-rules product over explicit pair states; an
    independent implementation used to cross-check parallel()."""
    def moves(lts, s):
        out = []
        for l, d, el, ed in lts.trans[s]:
            if ed >= 0:
                out.append((lts.labels[l], d, lts.labels[el], ed))
            else:
                out.append((lts.labels[l], d, None, None))
        return out

    states = {(left.initial, right.initial): 0}
    triples = []
    work = [(left.initial, right.initial)]

    def idx(pair):
        if pair not in states:
            states[pair] = len(states)
            work.append(pair)
        return states[pair]

    while work:
        ls, rs = pair = work.pop(0)
        src = states[pair]
        lm, rm = moves(left, ls), moves(right, rs)
        for label, tgt, exc_label, exc_tgt in lm:
            if label not in sync:
                if exc_label is None:
                    triples.append((src, label, idx((tgt, rs))))
                else:
                    triples.append((src, label, idx((tgt, rs)), exc_label, idx((exc_tgt, rs))))
                continue
            partners = [mv for mv in rm if mv[0] == label]
            if not partners:
                if exc_label is not None:
                    triples.append((src, exc_label, idx((exc_tgt, rs))))
                continue
            for plabel, ptgt, pexc_label, pexc_tgt in partners:
                if exc_label is not None and pexc_label is not None:
                    triples.append((src, label, idx((tgt, ptgt))))
                elif exc_label is not None:
                    triples.append((src, label, idx((tgt, ptgt)), exc_label, idx((exc_tgt, rs))))
                elif pexc_label is not None:
                    triples.append((src, label, idx((tgt, ptgt)), pexc_label, idx((ls, pexc_tgt))))
                else:
                    triples.append((src, label, idx((tgt, ptgt))))
        for label, tgt, exc_label, exc_tgt in rm:
            if label not in sync:
                if exc_label is None:
                    triples.append((src, label, idx((ls, tgt))))
                else:
                    triples.append((src, label, idx((ls, tgt)), exc_label, idx((ls, exc_tgt))))
            elif exc_label is not None and not any(mv[0] == label for mv in lm):
                triples.append((src, exc_label, idx((ls, exc_tgt))))
    marked = {idx for (ls, rs), idx in states.items() if ls in left.marked or rs in right.marked}
    lts = build_lts(len(states), 0, triples, marked)
    return (lts, states) if with_pairs else lts


def test_parallel_matches_reference_implementation():
    rng = random.Random(7)
    for _ in range(80):
        left = random_semisync_lts(rng)
        right = random_semisync_lts(rng)
        sync = set(rng.sample(["a", "b", "c"], rng.randint(0, 3)))
        expected = reference_product(left, right, sync)
        actual = parallel(left, right, sync)
        # Both number states in discovery order, so they agree exactly,
        # state numbering included, and so after renumbering.
        assert actual == expected
        assert renumber_bfs(actual) == renumber_bfs(expected)


def test_exception_completeness_per_product_state():
    # an x_exception transition exists in a product state iff exactly
    # one side enables the shared semisync label x there
    rng = random.Random(77)
    for _ in range(40):
        left = random_semisync_lts(rng)
        right = random_semisync_lts(rng)
        sync = {"a", "b"}
        product, pairs = reference_product(left, right, sync, with_pairs=True)
        for (ls, rs), src in pairs.items():
            expected = set()
            for mine, other, ms, os_ in ((left, right, ls, rs), (right, left, rs, ls)):
                ready_other = {other.labels[l] for l, _, _, _ in other.trans[os_]}
                for l, _, el, ed in mine.trans[ms]:
                    name = mine.labels[l]
                    if ed >= 0 and name in sync and name not in ready_other:
                        expected.add(mine.labels[el])
            emitted = {
                product.labels[l]
                for l, _, _, ed in product.trans[src]
                if ed < 0 and product.labels[l].endswith("_exception")
            }
            assert emitted == expected


def test_parallel_commutative_up_to_strong_bisim():
    rng = random.Random(21)
    for _ in range(40):
        l1 = random_semisync_lts(rng)
        l2 = random_semisync_lts(rng)
        sync = {"a"}
        # The AUT round trip writes each semi-synchronous move as its
        # success and exception moves, so both are compared.
        p = read_aut(write_aut(parallel(l1, l2, sync)))
        q = read_aut(write_aut(parallel(l2, l1, sync)))
        assert strong_bisim_check(p, q).equivalent


def test_state_limit():
    # The error counts the states numbered and the moves appended before
    # the refused state.  Two chains explore (0,0) -> (1,0), (0,1);
    # (1,0) -> (2,0), (1,1); (0,1) -> (1,1), (0,2): limit 3 refuses
    # (2,0) after two moves, limit 5 refuses (0,2) after five.  The
    # sender's x is shared and the silent side never offers it, so the
    # product takes x's exception target, the third state, which limit 2
    # refuses after the one move on a, whichever side sends.
    chain = from_traces(tuple("a" for _ in range(9)))
    sender = build_lts(4, 0, [(0, "a", 1), (0, "x", 2, "L.x_exception", 3)])
    silent = build_lts(1, 0, [])
    for left, right, sync, limit, states, transitions in (
        (chain, chain, set(), 3, 3, 2),
        (chain, chain, set(), 5, 5, 5),
        (sender, silent, {"x"}, 2, 2, 1),
        (silent, sender, {"x"}, 2, 2, 1),
    ):
        with pytest.raises(StateLimitExceeded) as err:
            parallel(left, right, sync, state_limit=limit)
        assert (err.value.limit, err.value.states_seen, err.value.transitions_seen) == (
            limit, states, transitions)
    assert parallel(sender, silent, {"x"}, state_limit=3).n_states == 3
    assert parallel(silent, sender, {"x"}, state_limit=3).n_states == 3


def test_builders_pause_the_cyclic_gc_and_restore_it(monkeypatch):
    # parallel, _product (which the direct check calls alone) and
    # _canonical build only acyclic containers, and so do the two
    # deadlock drivers: the collector is off while they run and left as
    # it was found, also when the state limit raises.  _product's call
    # of _merged_table, _canonical's of Lts and each driver's of its
    # result type show the collector's state while each runs.
    chain = from_traces(tuple("a" for _ in range(9)))
    seen = []

    def spy(real):
        def call(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(lts_module, "_merged_table", spy(lts_module._merged_table))
    monkeypatch.setattr(lts_module, "Lts", spy(lts_module.Lts))
    for result in ("DirectResult", "ReductionResult"):
        monkeypatch.setattr(topology, result, spy(getattr(topology, result)))
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            assert parallel(chain, chain, {"a"}).n_states == 10
            assert seen == [False, False]
            assert gc.isenabled() is enabled
            seen.clear()
            assert len(lts_module._product(fields(chain), chain, {"a"})[1]) == 10
            assert seen == [False]
            assert gc.isenabled() is enabled
            for build, left in ((parallel, chain), (lts_module._product, fields(chain))):
                seen.clear()
                with pytest.raises(StateLimitExceeded):
                    build(left, chain, set(), state_limit=3)
                assert seen == [False]
                assert gc.isenabled() is enabled
            seen.clear()
            lts_module._canonical(("tau", "a"), [[(1, 0, -1, -1)], []], 0, set())
            assert seen == [False]
            assert gc.isenabled() is enabled
            # At limit 10 a compatibility check and the direct
            # exploration of client_server_async raise.
            for limit, status in ((DEFAULT_STATE_LIMIT, "deadlock_free"), (10, "inconclusive")):
                seen.clear()
                reduction = verify_deadlock_by_reduction(load_arch("client_server_async"),
                                                         state_limit=limit)
                assert reduction.status == status
                assert any(c.detail for c in reduction.conditions) is (limit == 10)
                assert len(seen) > 1 and not any(seen)
                assert gc.isenabled() is enabled
                seen.clear()
                assert verify_deadlock_direct(load_arch("client_server_async"),
                                              state_limit=limit).status == status
                assert len(seen) > 1 and not any(seen)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- hide / relabel ------------------------------------------------------------


def test_hide_keeping_every_label_is_identity():
    # Both passes return their input itself when nothing changes.
    lts = random_lts(random.Random(3))
    assert not lts.has_semisync()
    assert hide(lts, lts.labels) is lts
    assert resolve(lts) is lts
    semisync = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2), (1, "y", 0)])
    assert hide(semisync, semisync.labels) is semisync


def test_keep_only_idempotent():
    lts = random_lts(random.Random(4))
    kept = hide(lts, keep_only={"a"})
    assert hide(kept, keep_only={"a"}) == kept


def test_hide_composes_as_intersection():
    rng = random.Random(5)
    for _ in range(50):
        for lts in (random_lts(rng, max_states=6), random_semisync_lts(rng)):
            k1, k2 = {"b", "c", "O.a_exception"}, {"a", "c", "O.a_exception"}
            assert hide(hide(lts, k1), k2) == hide(lts, k1 & k2)


def test_hidden_semisync_degrades_to_success_tau():
    lts = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2)])
    hidden = hide(lts, keep_only={"C.x_exception"})
    assert hidden.transition_view() == [(0, "tau", 1, None, None)]


def test_hide_resolves_a_semisync_tau_move():
    # Only a hand-built system has one; tau is never in a sync set, so
    # its exception could never fire.
    lts = build_lts(3, 0, [(0, "tau", 1, "C.x_exception", 2)])
    hidden = hide(lts, keep_only={"C.x_exception"})
    assert hidden.transition_view() == [(0, "tau", 1, None, None)]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sets(st.sampled_from(("a", "b", "c", "O.a_exception"))),
       st.sets(st.sampled_from(("a", "b", "c"))))
def test_restrict_is_resolve_after_hide_now_or_later(rng, keep, pending):
    lts = random_semisync_lts(rng)
    now = restrict(lts, keep)
    assert now == resolve(hide(lts, keep_only=keep))
    assert restrict(restrict(lts, keep, pending), keep) == now


def test_restrict_leaves_pending_moves_semisync():
    lts = build_lts(4, 0, [
        (0, "x", 1, "C.x_exception", 2),
        (0, "y", 3, "C.y_exception", 2),
        (2, "C.x_exception", 3),
    ])
    out = restrict(lts, keep={"y"}, pending={"x"})
    assert out.transition_view() == [
        (0, "x", 1, "C.x_exception", 2),
        (0, "y", 3, None, None),
        (2, "tau", 3, None, None),
    ]
    nothing_to_do = {"x", "y", "C.x_exception", "C.y_exception"}
    assert restrict(lts, keep=nothing_to_do, pending={"x", "y"}) is lts


def test_relabel_identity_and_inverse():
    lts = random_lts(random.Random(6))
    assert relabel(lts, {}) == lts
    phi = {"a": "x", "b": "y"}
    inv = {"x": "a", "y": "b"}
    assert relabel(relabel(lts, phi), inv) == lts


def test_relabel_requires_injectivity():
    # hide's and restrict's renaming is relabel's, checked the same way
    lts = from_traces(("a", "b"))
    for rename in (lambda mapping: relabel(lts, mapping),
                   lambda mapping: hide(lts, {"z"}, rename=mapping),
                   lambda mapping: restrict(lts, {"z"}, rename=mapping)):
        with pytest.raises(ValueError, match="tau cannot"):
            rename({TAU: "z"})
        with pytest.raises(ValueError, match="injective"):
            rename({"a": "z", "b": "z"})
        with pytest.raises(ValueError, match="collides"):
            rename({"a": "b"})  # collides with the existing label b


def test_relabel_moves_exception_labels_of_transitions():
    lts = build_lts(2, 0, [(0, "C.x_exception", 1)])
    out = relabel(lts, {"C.x": "D.y"})
    assert labels_of(out) == ["D.y_exception"]


# -- deadlocks -----------------------------------------------------------------


def test_single_state_no_transitions_deadlocked_under_both_notions():
    lts = build_lts(1, 0, [])
    assert find_deadlocks(lts, "strict") == {0}
    assert find_deadlocks(lts, "weak") == {0}


def test_tau_self_loop_is_weak_but_not_strict_deadlock():
    lts = build_lts(1, 0, [(0, "tau", 0)])
    assert find_deadlocks(lts, "strict") == frozenset()
    assert find_deadlocks(lts, "weak") == {0}


def test_weak_deadlocks_grow_under_hiding():
    rng = random.Random(8)
    for _ in range(80):
        lts = random_lts(rng)
        before = find_deadlocks(lts, "weak")
        hidden = hide(lts, keep_only={"b", "c"})
        after = find_deadlocks(hidden, "weak")
        assert before <= after
        if "a" not in visible_labels(lts):
            assert before == after


def test_shortest_trace():
    lts = build_lts(4, 0, [(0, "a", 1), (1, "tau", 2), (2, "b", 3)])
    dead = find_deadlocks(lts, "weak")
    assert dead == {3}
    assert shortest_trace(lts, dead) == ["a", "tau", "b"]


def test_deadlock_ops_require_resolved():
    lts = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2)])
    with pytest.raises(ValueError):
        find_deadlocks(lts)
    # resolution takes the success continuation; the exception target
    # becomes unreachable and deadlock search only reports reachable states
    assert find_deadlocks(resolve(lts)) == {1}
    with pytest.raises(ValueError):
        shortest_trace(lts, frozenset({1}))


# -- AUT ------------------------------------------------------------------------


def test_aut_round_trip_bytes():
    # A file whose states are all reachable reads back unchanged; of any
    # other, read_aut keeps the reachable part.  The draws have both.
    rng = random.Random(9)
    whole = 0
    for _ in range(100):
        lts = random_lts(rng)
        text = write_aut(lts)
        again = write_aut(read_aut(text))
        reachable = reachable_part(lts)
        assert again == write_aut(reachable)
        if reachable.n_states == lts.n_states:
            assert again == text
            whole += 1
    assert 30 <= whole < 100


def test_aut_input_keeps_only_reachable_states_in_their_order():
    text = 'des (1, 4, 6)\n(1, "a", 4)\n(4, "b", 1)\n(4, "c", 2)\n(3, "d", 1)\n'
    lts = read_aut(text)
    assert (lts.n_states, lts.initial) == (3, 0)
    assert write_aut(lts) == 'des (0, 3, 3)\n(0, "a", 2)\n(2, "b", 0)\n(2, "c", 1)\n'


def test_aut_semisync_exported_as_two_lines():
    lts = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2)])
    text = write_aut(lts)
    assert 'des (0, 2, 3)' in text
    assert '(0, "x", 1)' in text
    assert '(0, "C.x_exception", 2)' in text
    back = read_aut(text)
    assert not back.has_semisync()


def test_aut_rejects_malformed_input():
    with pytest.raises(ValueError):
        read_aut("not an aut file")
    with pytest.raises(ValueError):
        read_aut('des (0, 1, 1)\n(0, "a", 7)')
    with pytest.raises(ValueError):
        read_aut('des (0, 2, 1)\n(0, "a", 0)')


# -- determinism -----------------------------------------------------------------


def test_builders_are_deterministic():
    rng1, rng2 = random.Random(11), random.Random(11)
    for _ in range(20):
        a = random_lts(rng1)
        b = random_lts(rng2)
        assert a == b
    lts = random_lts(random.Random(12))
    assert parallel(lts, lts, {"a"}) == parallel(lts, lts, {"a"})


def test_reachable_states_bfs_order():
    lts = build_lts(4, 2, [(2, "a", 0), (2, "b", 3), (0, "a", 2)])
    assert reachable_states(lts) == [2, 0, 3]


# -- the integer core against a string-level reference -----------------------------
#
# The reference below rebuilds every result the way the operators once
# did: resolve the transitions to label strings, intern them, sort the
# names after tau and keep each state's moves as a sorted set of index
# tuples.  The integer operators must give exactly that.

VISIBLE = ("a", "b", "c", "a_exception")
EXCEPTIONS = ("a_exception", "C.x_exception")


def ref_build(n_states, initial, items, marked=frozenset()):
    names = {item[1] for item in items} | {item[3] for item in items if len(item) == 5}
    names.discard(TAU)
    labels = (TAU,) + tuple(sorted(names))
    index = {name: i for i, name in enumerate(labels)}
    rows = [set() for _ in range(n_states)]
    for item in items:
        if len(item) == 5:
            src, label, ok, exc_label, exc = item
            rows[src].add((index[label], ok, index[exc_label], exc))
        else:
            src, label, dst = item
            rows[src].add((index[label], dst, -1, -1))
    return labels, initial, tuple(tuple(sorted(row)) for row in rows), frozenset(marked)


def string_items(lts):
    for src, ts in enumerate(lts.trans):
        for l, d, el, ed in ts:
            if ed >= 0:
                yield (src, lts.labels[l], d, lts.labels[el], ed)
            else:
                yield (src, lts.labels[l], d)


def ref_hide(lts, hidden):
    items = []
    for item in string_items(lts):
        if hidden(item[1]):
            items.append((item[0], TAU, item[2]))  # a hidden semisync move degrades
        else:
            items.append(item)
    return ref_build(lts.n_states, lts.initial, items, lts.marked)


def ref_restrict(lts, keep, pending):
    items = []
    for item in string_items(lts):
        label = item[1] if item[1] in keep or item[1] in pending else TAU
        if len(item) == 5 and item[1] in pending:
            items.append((item[0], label) + item[2:])  # still semisync
        else:
            items.append((item[0], label, item[2]))
    return ref_build(lts.n_states, lts.initial, items, lts.marked)


def ref_relabel(lts, mapping):
    def apply(name):
        if name in mapping:
            return mapping[name]
        if name.endswith("_exception") and name[: -len("_exception")] in mapping:
            return mapping[name[: -len("_exception")]] + "_exception"
        return name

    items = [(item[0], apply(item[1])) + item[2:] for item in string_items(lts)]
    return ref_build(lts.n_states, lts.initial, items, lts.marked)


def ref_resolve(lts):
    items = [item[:3] for item in string_items(lts)]
    return ref_build(lts.n_states, lts.initial, items, lts.marked)


def ref_renumber(lts):
    order, seen = [lts.initial], {lts.initial}
    for s in order:  # grows while iterating: breadth-first
        for _, d, _, ed in lts.trans[s]:
            for dst in (d, ed) if ed >= 0 else (d,):
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
    remap = {old: new for new, old in enumerate(order)}
    items = []
    for item in string_items(lts):
        if item[0] in remap:
            moved = (remap[item[0]], item[1], remap[item[2]])
            items.append(moved + ((item[3], remap[item[4]]) if len(item) == 5 else ()))
    marked = {remap[s] for s in lts.marked if s in remap}
    return ref_build(len(order), 0, items, marked)


def string_items_of(lts, s):
    return [(lts.labels[l], d, ed >= 0) for l, d, _, ed in lts.trans[s]]


def ref_saturate(lts, budget):
    """(result, None), or (None, transitions counted when over budget)."""
    closures = []
    for s in range(lts.n_states):
        seen, work = {s}, [s]
        while work:
            for label, dst, _ in string_items_of(lts, work.pop()):
                if label == TAU and dst not in seen:
                    seen.add(dst)
                    work.append(dst)
        closures.append(seen)
    items = []
    for s in range(lts.n_states):
        items += [(s, TAU, u) for u in closures[s]]
        targets = {}
        for x in closures[s]:
            for label, dst, _ in string_items_of(lts, x):
                if label != TAU:
                    targets.setdefault(label, set()).update(closures[dst])
        items += [(s, label, u) for label, dsts in targets.items() for u in dsts]
        if budget is not None and len(items) > budget:
            return None, len(items)
    return ref_build(lts.n_states, lts.initial, items, lts.marked), None


def assert_canonical(lts):
    """The form every operator's output is in: tau and then every other
    label in use, sorted, as the label table; each row sorted and free
    of duplicates; each transition exactly a tuple of four ints, in
    range, whose exception fields are both -1 or both set."""
    assert lts.n_states == len(lts.trans)
    moves = [move for row in lts.trans for move in row]
    for move in moves:
        assert type(move) is tuple and len(move) == 4
        assert all(type(field) is int for field in move)
        l, d, el, ed = move
        assert 0 <= l < len(lts.labels) and 0 <= d < lts.n_states
        assert (el, ed) == (-1, -1) or 0 <= el < len(lts.labels) and 0 <= ed < lts.n_states
    used = {lts.labels[l] for l, _, _, _ in moves}
    used |= {lts.labels[el] for _, _, el, ed in moves if ed >= 0}
    assert lts.labels == (TAU,) + tuple(sorted(used - {TAU}))
    for row in lts.trans:
        assert list(row) == sorted(set(row))


def assert_matches(lts, ref):
    assert (lts.labels, lts.initial, lts.trans, lts.marked) == ref
    assert_canonical(lts)


@st.composite
def small_lts(draw):
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    normal = st.tuples(state, st.sampled_from((TAU,) + VISIBLE), state)
    semisync = st.tuples(state, st.sampled_from((TAU,) + VISIBLE[:3]), state,
                         st.sampled_from(EXCEPTIONS), state)
    items = draw(st.lists(st.one_of(normal, semisync), max_size=14))
    marked = draw(st.frozensets(state, max_size=2))
    return n, draw(state), items, marked


@settings(max_examples=300, deadline=None)
@given(small_lts(), st.frozensets(st.sampled_from(VISIBLE + EXCEPTIONS)),
       st.frozensets(st.sampled_from((TAU,) + VISIBLE + EXCEPTIONS)),
       st.dictionaries(st.sampled_from(("a", "b", "c")), st.sampled_from(("p", "q", "r"))),
       st.integers(0, 60))
def test_integer_core_matches_string_reference(spec, names, pending, mapping, budget):
    n, initial, items, marked = spec
    lts = build_lts(n, initial, items, marked)
    assert_matches(lts, ref_build(n, initial, items, marked))

    assert_matches(restrict(lts, names, pending), ref_restrict(lts, names, pending))
    # names never holds tau, so hiding also resolves a semisync tau move.
    assert_matches(hide(lts, keep_only=names), ref_hide(lts, lambda x: x not in names))
    if len(set(mapping.values())) == len(mapping):  # injective maps only
        assert_matches(relabel(lts, mapping), ref_relabel(lts, mapping))
        renamed = relabel(lts, mapping)
        assert_matches(hide(lts, keep_only=names, rename=mapping),
                       ref_hide(renamed, lambda x: x not in names))
    assert_matches(resolve(lts), ref_resolve(lts))
    assert_matches(renumber_bfs(lts), ref_renumber(lts))

    resolved = resolve(lts)
    sync = {name for name in names if not is_exception(name)}
    for derived in (parallel(lts, lts, sync), parallel(lts, resolved, sync),
                    _disjoint_union(lts, resolved)[0], branching_quotient(resolved)[0],
                    minimize(resolved), read_aut(write_aut(lts))):
        assert_canonical(derived)
    expected, over = ref_saturate(resolved, None)
    assert_matches(saturate(resolved), expected)
    expected, over = ref_saturate(resolved, budget)
    if over is None:
        assert_matches(saturate(resolved, budget), expected)
    else:
        with pytest.raises(StateLimitExceeded) as exc:
            saturate(resolved, budget)
        assert (exc.value.limit, exc.value.states_seen, exc.value.transitions_seen) == (
            budget, n, over)


def four_map_canonical(names, rows, initial, marked, exc_names=None):
    """_canonical's remap path as it was before each row was built in one
    comprehension: four chained maps over all the rows' moves, zipped
    and cut back into rows.  The reference for the new path."""
    flat = chain.from_iterable
    exc_names = names if exc_names is None else exc_names
    used = set(map(itemgetter(0), flat(rows)))
    used_exc = set(map(itemgetter(2), flat(rows))) - {-1}
    in_use = ({names[i] for i in used} | {exc_names[i] for i in used_exc}) - {TAU}
    labels = (TAU,) + tuple(sorted(in_use))
    position = {name: i for i, name in enumerate(labels)}
    remap = [position.get(name, -1) for name in names]
    remap_exc = [position.get(name, -1) for name in exc_names] + [-1]
    moves = zip(
        map(remap.__getitem__, map(itemgetter(0), flat(rows))),
        map(itemgetter(1), flat(rows)),
        map(remap_exc.__getitem__, map(itemgetter(2), flat(rows))),
        map(itemgetter(3), flat(rows)),
    )
    trans = tuple(tuple(sorted(set(islice(moves, len(row))))) for row in rows)
    return labels, initial, trans, frozenset(marked)


@st.composite
def raw_tables(draw):
    """A label table and an exception table (None: the label table),
    either of which may repeat a name, hold tau anywhere and hold unused
    names, with rows over them, unsorted and with duplicates."""
    pool = (TAU, "a", "b", "c", "a_exception", "c_exception")
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    exc_names = draw(st.none() | st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    label = st.integers(0, len(names) - 1)
    exc = st.integers(0, len(names if exc_names is None else exc_names) - 1)
    move = st.tuples(label, state, st.just(-1), st.just(-1)) | st.tuples(label, state, exc, state)
    rows = draw(st.lists(st.lists(move, max_size=5), min_size=n, max_size=n))
    return names, rows, draw(state), draw(st.frozensets(state, max_size=2)), exc_names


@settings(max_examples=300, deadline=None)
@given(raw_tables())
def test_the_one_comprehension_remap_matches_the_four_map_reference(spec):
    names, rows, initial, marked, exc_names = spec
    lts = lts_module._canonical(names, rows, initial, marked, exc_names)
    assert_matches(lts, four_map_canonical(names, rows, initial, marked, exc_names))


# -- operands with different label tables ----------------------------------------
#
# parallel builds its product over the operands' merged table and
# _disjoint_union maps both sides into it in order; both must give
# exactly what building from label strings gives, also when the tables
# interleave, when a table name never fires in the product (a sync name
# that only one side offers) and when only one side has an exception
# label.

LEFT_NAMES, LEFT_EXCEPTIONS = ("a", "c", "s", "u"), ("s_exception", "x_exception")
RIGHT_NAMES, RIGHT_EXCEPTIONS = ("b", "c", "s", "t"), ("s_exception", "t_exception")


@st.composite
def lts_over(draw, names, exceptions):
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    normal = st.tuples(state, st.sampled_from((TAU,) + names + exceptions), state)
    semisync = st.tuples(state, st.sampled_from(names), state, st.sampled_from(exceptions), state)
    items = draw(st.lists(st.one_of(normal, semisync), max_size=12))
    return build_lts(n, draw(state), items, draw(st.frozensets(state, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(lts_over(LEFT_NAMES, LEFT_EXCEPTIONS), lts_over(RIGHT_NAMES, RIGHT_EXCEPTIONS),
       st.frozensets(st.sampled_from(("c", "s", "t", "u"))))
def test_parallel_over_interleaved_tables_matches_reference(left, right, sync):
    for a, b in ((left, right), (right, left)):
        product = parallel(a, b, sync)
        assert_canonical(product)
        expected = reference_product(a, b, sync)
        assert product == expected
        assert renumber_bfs(product) == renumber_bfs(expected)


def test_parallel_drops_a_sync_name_only_one_side_offers():
    # u is in the merged table, but no joint move on it can fire.
    left = build_lts(3, 0, [(0, "u", 1), (0, "a", 2)])
    right = build_lts(2, 0, [(0, "b", 1)])
    product = parallel(left, right, {"u"})
    assert product.labels == (TAU, "a", "b")
    assert_canonical(product)


# -- a composition step restricted in its one canonical pass ---------------------
#
# composite_semantics hands each step's keep and pending names to
# parallel, which hides and resolves the explored product in the same
# _canonical call.  That must be exactly the plain product restricted
# afterwards, also when a semi-synchronous move is resolved or keeps its
# exception, when a sync name only one side offers never fires, and when
# keep or pending holds exception labels.

NAMES_AND_EXCEPTIONS = tuple(sorted(set(LEFT_NAMES + RIGHT_NAMES + LEFT_EXCEPTIONS
                                        + RIGHT_EXCEPTIONS)))


@settings(max_examples=300, deadline=None)
@given(lts_over(LEFT_NAMES, LEFT_EXCEPTIONS), lts_over(RIGHT_NAMES, RIGHT_EXCEPTIONS),
       st.frozensets(st.sampled_from(("c", "s", "t", "u"))),
       st.frozensets(st.sampled_from(NAMES_AND_EXCEPTIONS)),
       st.frozensets(st.sampled_from(NAMES_AND_EXCEPTIONS)))
def test_a_restricted_product_is_the_product_restricted(left, right, sync, keep, pending):
    for a, b in ((left, right), (right, left)):
        restricted = parallel(a, b, sync, keep=keep, pending=pending)
        assert restricted == restrict(parallel(a, b, sync), keep, pending)
        assert parallel(a, b, sync, keep=keep) == restrict(parallel(a, b, sync), keep)
        assert_canonical(restricted)


def test_a_restricted_product_resolves_what_no_later_step_tests():
    # s is pending, so its joint move keeps its exception; x is
    # settled, so its move resolves and x_exception, which fires
    # nowhere else, leaves the table; u, which only the left side
    # offers, never fires.
    left = build_lts(4, 0, [(0, "s", 1, "s_exception", 2), (0, "x", 3, "x_exception", 2),
                            (0, "u", 3)])
    right = build_lts(2, 0, [(0, "s", 1)])
    restricted = parallel(left, right, {"s", "u"}, keep={"x"}, pending={"s"})
    assert restricted == restrict(parallel(left, right, {"s", "u"}), {"x"}, {"s"})
    assert restricted.labels == (TAU, "s", "s_exception", "x")
    assert restricted.transition_view() == [(0, "s", 1, "s_exception", 2), (0, "x", 3, None, None)]


# -- the search over a product's raw rows ------------------------------------------
#
# The direct oracle searches _product's rows as they were explored:
# unsorted, with duplicates and with semi-synchronous moves unresolved.
# Its deadlocks and shortest trace must be those of the resolved
# canonical system.


def scrambled(rows, rng):
    """rows with each row's moves reordered and some repeated."""
    out = []
    for row in rows:
        row = list(row) + (rng.choices(row, k=rng.randint(0, 2)) if row else [])
        rng.shuffle(row)
        out.append(row)
    return out


def assert_search_matches_resolved(raw, targets):
    labels, rows, initial, marked = raw
    built = resolve(lts_module._canonical(*raw))
    for notion in ("weak", "strict"):
        dead = lts_module._deadlocks(rows, initial, notion)
        assert dead == find_deadlocks(built, notion)
        if dead:
            assert lts_module._trace(labels, rows, initial, dead) == shortest_trace(built, dead)
    try:
        expected = shortest_trace(built, targets)
    except ValueError:
        with pytest.raises(ValueError):
            lts_module._trace(labels, rows, initial, targets)
    else:
        assert lts_module._trace(labels, rows, initial, targets) == expected


@settings(max_examples=300, deadline=None)
@given(lts_over(LEFT_NAMES, LEFT_EXCEPTIONS), lts_over(RIGHT_NAMES, RIGHT_EXCEPTIONS),
       st.frozensets(st.sampled_from(("c", "s", "t", "u"))), st.randoms(use_true_random=False),
       st.frozensets(st.integers(0, 24), max_size=3))
def test_row_search_over_a_raw_product_matches_the_resolved_system(left, right, sync, rng,
                                                                   targets):
    labels, rows, initial, marked = lts_module._product(fields(left), right, sync)
    for raw_rows in (rows, scrambled(rows, rng)):
        assert_search_matches_resolved((labels, raw_rows, initial, marked), targets)


def test_a_state_only_an_exception_reaches_counts_but_is_never_a_deadlock():
    # Left's s is semi-synchronous; right is ready for it, so the joint
    # move keeps left's exception target, state (2, 0), which is
    # generated and counted, dead, and unreachable once resolved.
    left = build_lts(3, 0, [(0, "s", 1, "L.s_exception", 2), (1, "a", 1)])
    right = build_lts(2, 0, [(0, "s", 1), (1, "b", 1)])
    raw = lts_module._product(fields(left), right, {"s"})
    labels, rows, initial, marked = raw
    built = resolve(lts_module._canonical(*raw))
    assert len(rows) == built.n_states == 3
    assert len(reachable_states(built)) == 2
    stranded = next(s for s, row in enumerate(rows) if not row)
    for notion in ("weak", "strict"):
        assert stranded not in lts_module._deadlocks(rows, initial, notion)
    assert_search_matches_resolved(raw, frozenset({stranded}))


# The direct oracle chains _product from the one-state system without
# moves, and sorts no step.  That renumbers the states and may repeat
# moves, but it builds the system the fold of parallel builds.

UNIT = ((TAU,), ((),), 0, frozenset())


@settings(max_examples=300, deadline=None)
@given(lts_over(LEFT_NAMES, LEFT_EXCEPTIONS), lts_over(RIGHT_NAMES, RIGHT_EXCEPTIONS),
       lts_over(LEFT_NAMES, RIGHT_EXCEPTIONS), st.frozensets(st.sampled_from(("c", "s", "t", "u"))),
       st.frozensets(st.sampled_from(("a", "b", "c", "s", "t", "u"))))
def test_chained_raw_products_build_the_fold_of_parallel(a, b, c, sync_ab, sync_c):
    raw = lts_module._product(UNIT, a, ())
    raw = lts_module._product(raw, b, sync_ab)
    labels, rows, initial, marked = raw = lts_module._product(raw, c, sync_c)
    chained = lts_module._canonical(*raw)
    folded = parallel(parallel(a, b, sync_ab), c, sync_c)
    assert chained.labels == folded.labels
    assert (chained.n_states, len(chained.marked)) == (folded.n_states, len(folded.marked))
    assert sum(map(len, chained.trans)) == sum(map(len, folded.trans))
    # write_aut keeps each exception move as a move of its own.
    assert strong_bisim_check(read_aut(write_aut(chained)), read_aut(write_aut(folded))).equivalent
    resolved = resolve(folded)
    for notion in ("weak", "strict"):
        dead = lts_module._deadlocks(rows, initial, notion)
        expected = find_deadlocks(resolved, notion)
        assert len(dead) == len(expected)
        if dead:
            trace = lts_module._trace(labels, rows, initial, dead)
            assert len(trace) == len(shortest_trace(resolved, expected))


def ref_union(l1, l2):
    items = list(string_items(l1))
    for item in string_items(l2):
        shifted = (item[0] + l1.n_states, item[1], item[2] + l1.n_states)
        items.append(shifted + ((item[3], item[4] + l1.n_states) if len(item) == 5 else ()))
    marked = set(l1.marked) | {s + l1.n_states for s in l2.marked}
    return ref_build(l1.n_states + l2.n_states, l1.initial, items, marked)


@settings(max_examples=300, deadline=None)
@given(lts_over(("c", "e"), ("c_exception",)),
       st.sampled_from([
           (("a", "b"), ("a_exception",)),  # all before l1's names
           (("x", "y"), ("y_exception",)),  # all after them
           (("b", "d", "f"), ("d_exception",)),  # among them
           (("c",), ("c_exception",)),  # a subset: l1's indices do not move
           (("c", "e"), ("c_exception",)),  # the same table
       ]).flatmap(lambda table: lts_over(*table)))
def test_disjoint_union_matches_string_reference(l1, l2):
    union, i1, i2 = _disjoint_union(l1, l2)
    assert_matches(union, ref_union(l1, l2))
    assert (union.n_states, i1, i2) == (l1.n_states + l2.n_states, l1.initial,
                                        l1.n_states + l2.initial)
