from __future__ import annotations

import gc
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    from_traces,
    is_branching_bisimulation,
    load_arch,
    minimize,
    naive_branching_blocks,
    naive_weak_bisim,
    prefix_lts,
    random_lts,
    tau_pad,
)
from test_topology import ring_source
from padlver import build_lts, elaborate, hide, parallel, parse, relabel, saturate, validate
from padlver import equivalence, strong_bisim_check, topology, weak_bisim_check
from padlver.diagnostics import StateLimitExceeded
from padlver.elaborate import aei_semantics
from padlver.equivalence import (
    MAX_FORMULA_ROUNDS,
    And,
    Dia,
    EquivalenceVerdict,
    Tt,
    _branching_blocks,
    _branching_partition,
    _disjoint_union,
    _distinguish,
    _quotient,
    _rounds,
    _strong_signatures,
    _tau_sccs,
    _weak_moves,
    _weak_signatures,
    branching_quotient,
    eval_formula,
)
from padlver.lts import DEFAULT_STATE_LIMIT
from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct


def refine(lts, keep=0, pair=None):
    """Strong refinement of lts: the rounds of its strong signatures."""
    return _rounds(lts.n_states, _strong_signatures(lts), keep, pair)


def weak_rounds(lts, keep=0, pair=None, budget=None):
    """The weak rounds of a branching quotient."""
    return _rounds(lts.n_states, _weak_signatures(lts, budget), keep, pair)


# -- saturation ----------------------------------------------------------------


def test_saturate_tau_free_adds_only_reflexive_tau():
    lts = from_traces(("a", "b"))
    sat = saturate(lts)
    view = {(s, l, d) for s, l, d, _, _ in sat.transition_view()}
    assert view == {(0, "a", 1), (1, "b", 2),
                    (0, "tau", 0), (1, "tau", 1), (2, "tau", 2)}


def test_saturate_skips_over_tau():
    lts = from_traces(("a", "tau", "b"))
    sat = saturate(lts)
    view = {(s, l, d) for s, l, d, _, _ in sat.transition_view()}
    assert (0, "a", 1) in view and (0, "a", 2) in view
    assert (1, "b", 3) in view and (2, "b", 3) in view
    assert (1, "tau", 2) in view


def test_saturate_initial_tau():
    lts = from_traces(("tau", "a"))
    sat = saturate(lts)
    assert (0, "a", 2) in {(s, l, d) for s, l, d, _, _ in sat.transition_view()}


def test_saturate_requires_resolved():
    lts = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2)])
    with pytest.raises(ValueError):
        saturate(lts)


def test_saturation_budget_surfaces_as_resource_error():
    chain = from_traces(tuple("a" for _ in range(6)))
    longer = from_traces(tuple("a" for _ in range(7)))
    # the budget counts transitions, and the message says which bound it is
    budget = r"^saturation budget 3 exceeded \("
    with pytest.raises(StateLimitExceeded, match=budget):
        saturate(chain, max_transitions=3)
    # not branching bisimilar, so the check runs weak rounds, and the
    # first already has more than 3 signature entries
    with pytest.raises(StateLimitExceeded, match=budget):
        weak_bisim_check(chain, longer, saturation_budget=3)
    # a pair the branching quotient merges is decided before any round
    assert weak_bisim_check(chain, chain, saturation_budget=3).equivalent


def test_weak_round_stops_at_the_first_state_past_the_budget():
    # Over one block every state but the chain's end has two entries,
    # (tau, 0) and (a, 0): the running count reads 2, 4, 6, and the
    # round stops at 6, not at the whole round's 21.
    chain = from_traces(tuple("a" for _ in range(10)))
    with pytest.raises(StateLimitExceeded, match=r"^saturation budget 5 exceeded \(") as caught:
        _weak_signatures(chain, 5)([0] * chain.n_states)
    assert (caught.value.limit, caught.value.transitions_seen) == (5, 6)
    assert caught.value.states_seen == chain.n_states


def test_quotients_refuse_semisync_moves():
    # A state map keeps (label, target) only: the exception target of a
    # semi-synchronous move would be lost.
    lts = build_lts(3, 0, [(0, "x", 1, "C.x_exception", 2)])
    with pytest.raises(ValueError, match="resolved"):
        _quotient(lts, [0, 1, 2], 3)
    with pytest.raises(ValueError, match="resolved"):
        branching_quotient(lts)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_no_tau_step_inside_a_strong_block_once_tau_cycles_collapse(rng, max_states):
    # After the tau-SCC collapse no tau step joins two strongly
    # bisimilar states: such a step needs an endless tau path inside
    # one block, which in a finite system is a tau cycle.  So this pins
    # that _tau_sccs and _quotient leave no tau cycle, seen through
    # strong refinement; no weak-check code relies on it any more.
    lts = random_lts(rng, max_states=max_states, tau_bias=0.7)
    comp, n_comps = _tau_sccs(lts)
    collapsed = _quotient(lts, comp, n_comps)
    parts, _ = refine(collapsed)
    inside = [(s, d) for s, ts in enumerate(collapsed.trans) for l, d, _, _ in ts
              if l == 0 and parts[s] == parts[d]]
    assert inside == []


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 14))
def test_branching_partition_matches_the_naive_fixpoint(rng, max_states):
    lts = random_lts(rng, max_states=max_states, tau_bias=0.7)
    comp, n_comps = _tau_sccs(lts)
    collapsed = _quotient(lts, comp, n_comps)
    parts = _branching_partition(collapsed.trans, len(collapsed.labels))
    assert parts == naive_branching_blocks(collapsed)
    reduced, block = branching_quotient(lts)
    # one pass over the composed map is the quotient of the collapse
    assert block == [parts[c] for c in comp]
    assert reduced == _quotient(collapsed, parts, max(parts) + 1)
    _, n_components = _tau_sccs(reduced)
    assert n_components == reduced.n_states
    assert not [s for s, ts in enumerate(reduced.trans) for l, d, _, _ in ts
                if l == 0 and d == s]
    assert naive_weak_bisim(lts, reduced)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.2, 0.8), st.integers(15, 40))
def test_branching_partition_matches_the_naive_fixpoint_on_larger_draws(rng, tau_bias,
                                                                        max_states):
    # More states per block than above, so more blocks split into
    # several groups of different sizes, the largest of which keeps
    # the block.
    lts = random_lts(rng, max_states=max_states, tau_bias=tau_bias)
    comp, n_comps = _tau_sccs(lts)
    collapsed = _quotient(lts, comp, n_comps)
    parts = _branching_partition(collapsed.trans, len(collapsed.labels))
    assert is_branching_bisimulation(collapsed, parts)
    assert parts == naive_branching_blocks(collapsed)


def ring_accumulators(monkeypatch, n):
    """The accumulators that composite_semantics quotients while the
    reduction checks a ring of n, as handed to branching_quotient."""
    elaborate_module = importlib.import_module("padlver.elaborate")
    real = elaborate_module.branching_quotient
    seen = []

    def recording(lts):
        seen.append(lts)
        return real(lts)

    monkeypatch.setattr(elaborate_module, "branching_quotient", recording)
    assert verify_deadlock_by_reduction(elaborate(validate(parse(ring_source(n))), 1)).status == (
        "deadlock_free")
    return seen


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_branching_partition_matches_the_naive_fixpoint_on_ring_accumulators(monkeypatch, n):
    # Along a ring's chain-shaped accumulators every member of a block
    # often changes at once, where the largest group keeps the block.
    # The naive fixpoint is cubic, so it checks every accumulator whose
    # collapse has at most 100 states and the largest of each ring; the
    # transfer check covers them all.
    accumulators = ring_accumulators(monkeypatch, n)
    assert len(accumulators) == n - 2
    largest = max(accumulators, key=lambda lts: lts.n_states)
    for lts in accumulators:
        comp, n_comps = _tau_sccs(lts)
        collapsed = _quotient(lts, comp, n_comps)
        parts = _branching_partition(collapsed.trans, len(collapsed.labels))
        assert is_branching_bisimulation(collapsed, parts)
        if collapsed.n_states <= 100 or lts is largest:
            assert parts == naive_branching_blocks(collapsed)


@settings(max_examples=500, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.3, 0.9), st.integers(1, 14))
def test_every_tau_step_of_the_branching_quotient_descends(rng, tau_bias, max_states):
    # _weak_signatures walks the quotient in state order and needs every
    # tau successor to come first
    reduced, _ = branching_quotient(random_lts(rng, max_states=max_states, tau_bias=tau_bias))
    assert not [(s, d) for s, ts in enumerate(reduced.trans) for l, d, _, _ in ts
                if l == 0 and d >= s]


# -- basic verdicts --------------------------------------------------------------


def test_reflexivity():
    lts = random_lts(random.Random(0))
    assert weak_bisim_check(lts, lts).equivalent


def test_tau_absorption():
    assert weak_bisim_check(from_traces(("a", "tau")), from_traces(("a",))).equivalent


def test_distinct_labels_give_diamond_formula():
    verdict = weak_bisim_check(from_traces(("a",)), from_traces(("b",)))
    assert not verdict.equivalent
    assert verdict.formula == Dia("a", Tt())
    assert eval_formula(from_traces(("a",)), verdict.formula)
    assert not eval_formula(from_traces(("b",)), verdict.formula)


def test_strong_check_distinguishes_internal_step():
    a_tau = from_traces(("a", "tau"))
    a = from_traces(("a",))
    assert weak_bisim_check(a_tau, a).equivalent
    assert not strong_bisim_check(a_tau, a).equivalent


# -- minimization ---------------------------------------------------------------


def test_minimize_tau_chain():
    lts = from_traces(("tau", "tau", "a"))
    small = minimize(lts)
    assert small.n_states == 2
    assert [(s, l, d) for s, l, d, _, _ in small.transition_view()] == [(0, "a", 1)]


def test_minimize_is_idempotent_and_preserves_equivalence():
    rng = random.Random(13)
    for _ in range(60):
        lts = random_lts(rng)
        small = minimize(lts)
        assert weak_bisim_check(small, lts).equivalent
        again = minimize(small)
        assert again.n_states == small.n_states


def test_minimize_already_minimal_keeps_count():
    lts = from_traces(("a", "b"))
    assert minimize(lts).n_states == lts.n_states


# -- up-to-relabeling -------------------------------------------------------------


def test_upto_relabeling_identity_and_rename():
    a, b = from_traces(("a",)), from_traces(("b",))
    assert weak_bisim_check(relabel(a, {}), a).equivalent
    assert weak_bisim_check(relabel(a, {"a": "b"}), b).equivalent
    assert not weak_bisim_check(relabel(a, {}), b).equivalent


# -- property suites (the larger runs live in the acceptance module) --------------


def test_equivalence_relation_laws():
    rng = random.Random(17)
    for _ in range(150):
        l1 = random_lts(rng, max_states=6)
        l2 = tau_pad(l1, rng) if rng.random() < 0.5 else random_lts(rng, max_states=6)
        l3 = tau_pad(l2, rng) if rng.random() < 0.5 else random_lts(rng, max_states=6)
        r12 = weak_bisim_check(l1, l2).equivalent
        r21 = weak_bisim_check(l2, l1).equivalent
        assert r12 == r21
        r23 = weak_bisim_check(l2, l3).equivalent
        r13 = weak_bisim_check(l1, l3).equivalent
        if r12 and r23:
            assert r13
        assert weak_bisim_check(l1, l1).equivalent


def test_tau_law_on_random_processes():
    rng = random.Random(19)
    for _ in range(100):
        p = random_lts(rng, max_states=5)
        a_tau_p = prefix_lts("a", prefix_lts("tau", p))
        a_p = prefix_lts("a", p)
        assert weak_bisim_check(a_tau_p, a_p).equivalent


def test_oracle_agreement_small():
    rng = random.Random(23)
    for _ in range(120):
        l1 = random_lts(rng, max_states=4)
        l2 = tau_pad(l1, rng) if rng.random() < 0.5 else random_lts(rng, max_states=4)
        assert weak_bisim_check(l1, l2).equivalent == naive_weak_bisim(l1, l2)


def test_saturation_correspondence():
    rng = random.Random(29)
    for _ in range(100):
        l1 = random_lts(rng, max_states=6)
        l2 = tau_pad(l1, rng) if rng.random() < 0.5 else random_lts(rng, max_states=6)
        weak = weak_bisim_check(l1, l2).equivalent
        strong_on_saturated = strong_bisim_check(saturate(l1), saturate(l2)).equivalent
        assert weak == strong_on_saturated


def test_congruence_for_static_operators():
    rng = random.Random(31)
    for _ in range(60):
        l1 = random_lts(rng, max_states=5)
        l2 = tau_pad(l1, rng)
        m_ = random_lts(rng, max_states=4)
        sync = {"a"}
        assert weak_bisim_check(l1, l2).equivalent
        assert weak_bisim_check(
            parallel(l1, m_, sync), parallel(l2, m_, sync)
        ).equivalent
        assert weak_bisim_check(
            hide(l1, keep_only={"a", "c"}), hide(l2, keep_only={"a", "c"})
        ).equivalent
        phi = {"a": "z"}
        assert weak_bisim_check(relabel(l1, phi), relabel(l2, phi)).equivalent


def test_distinguishing_formula_soundness():
    rng = random.Random(37)
    checked = 0
    for _ in range(200):
        l1 = random_lts(rng, max_states=6)
        l2 = random_lts(rng, max_states=6)
        verdict = weak_bisim_check(l1, l2)
        if verdict.equivalent:
            continue
        checked += 1
        assert eval_formula(l1, verdict.formula), verdict.formula.render()
        assert not eval_formula(l2, verdict.formula), verdict.formula.render()
    assert checked >= 50


def test_witness_partition_groups_equivalent_states():
    l1 = from_traces(("a", "tau"))
    l2 = from_traces(("a",))
    verdict = weak_bisim_check(l1, l2)
    assert verdict.equivalent
    # two blocks: the initial states, and all the post-a states
    assert verdict.n_blocks == 2


# -- deep distinguishing formulas --------------------------------------------------


def formula_levels(formula) -> int:
    """Nesting depth of a formula, counted level by level."""
    levels, layer = 0, [formula]
    while layer:
        levels += 1
        layer = [sub for f in layer
                 for sub in (f.subs if isinstance(f, And) else (getattr(f, "sub", None),))
                 if sub is not None]
    return levels


def alternating_pair(k: int):
    """Two systems whose distinguishing formula gains a not, a diamond
    and an and in every refinement round, the deepest a round can add;
    their initial states separate in round k + 1."""
    a_, b_ = (lambda j: 2 + 2 * j), (lambda j: 3 + 2 * j)  # 0: stop, 1: c-then-stop
    trans = [(1, "c", 0), (b_(0), "b", 0)]
    for j in range(1, k + 1):
        trans += [(a_(j), "a", b_(j - 1)), (a_(j), "a", 1)]
        trans += [(b_(j), "a", b_(j - 1)), (b_(j), "a", 1), (b_(j), "a", a_(j - 1))]
    n = 4 + 2 * k
    return build_lts(n, a_(k), trans), build_lts(n, b_(k), trans)


def under_frames(n: int, thunk):
    """Run thunk with n more frames on the stack, as a deeper caller would."""
    return thunk() if n == 0 else under_frames(n - 1, thunk)


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
def test_chain_formulas_of_200_levels_are_still_built(check):
    l1, l2 = from_traces(("a",) * 199), from_traces(("a",) * 200)
    verdict = check(l1, l2)
    assert not verdict.equivalent
    assert formula_levels(verdict.formula) >= 200
    assert eval_formula(l1, verdict.formula)
    assert not eval_formula(l2, verdict.formula)


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
def test_the_deepest_formula_renders_hashes_and_evaluates(check):
    # Separation in the last round a formula is built from, with the
    # costliest shape per round and a hundred caller frames on the stack.
    l1, l2 = alternating_pair(MAX_FORMULA_ROUNDS - 1)
    verdict = under_frames(100, lambda: check(l1, l2))
    formula = verdict.formula
    assert formula_levels(formula) >= 3 * (MAX_FORMULA_ROUNDS - 1)
    text = under_frames(100, formula.render)
    assert text.startswith("not <<a>> (") and text.count("not") >= MAX_FORMULA_ROUNDS
    assert under_frames(100, lambda: hash(formula)) == hash(formula)
    assert under_frames(100, lambda: eval_formula(l1, formula))
    assert not under_frames(100, lambda: eval_formula(l2, formula))


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
def test_past_the_round_limit_a_verdict_has_no_formula(check):
    for l1, l2 in [alternating_pair(MAX_FORMULA_ROUNDS),
                   (from_traces(("a",) * 400), from_traces(("a",) * 401))]:
        verdict = check(l1, l2)
        assert not verdict.equivalent
        assert verdict.formula is None


# -- early exits ---------------------------------------------------------------


def full_refinement(check, l1, l2):
    """A check without its early exits: the system it refines, the
    initial states' images in it, and the history of refinement to the
    fixpoint."""
    union, p, q = _disjoint_union(l1, l2)
    refined = union
    if check is weak_bisim_check:
        reduced, block = branching_quotient(union)
        refined, p, q = saturate(reduced), block[p], block[q]
    _, rounds = refine(refined, keep=MAX_FORMULA_ROUNDS + 1)
    return refined, p, q, rounds


def assert_agrees_with_full_refinement(check, l1, l2):
    verdict = check(l1, l2)
    refined, p, q, rounds = full_refinement(check, l1, l2)
    final = rounds[-1]
    assert verdict.equivalent == (final[p] == final[q])
    if verdict.equivalent:
        assert verdict.formula is None
        # as fine as the stable partition or finer: a bisimulation
        assert verdict.n_blocks >= max(final) + 1
        return
    k = next(k for k, parts in enumerate(rounds) if parts[p] != parts[q])
    assert verdict.n_blocks == max(rounds[k]) + 1
    assert verdict.formula.render() == _distinguish(refined, rounds, p, q).render()


@st.composite
def lts_pairs(draw):
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "padded", "alternating"]))
    if kind == "alternating":
        pair = alternating_pair(draw(st.integers(0, 8)))
        return pair[::-1] if rng.random() < 0.5 else pair
    l1 = random_lts(rng, max_states=8, tau_bias=0.4)
    return l1, tau_pad(l1, rng) if kind == "padded" else random_lts(rng, max_states=8)


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
@settings(max_examples=300, deadline=None)
@given(lts_pairs())
def test_early_exits_keep_the_verdicts_and_formulas_of_the_full_refinement(check, pair):
    assert_agrees_with_full_refinement(check, *pair)


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
@pytest.mark.parametrize("pair", [alternating_pair(20), alternating_pair(60),
                                  (from_traces(("a",) * 30), from_traces(("a",) * 31))])
def test_late_separations_keep_the_formulas_of_the_full_refinement(check, pair):
    assert_agrees_with_full_refinement(check, *pair)


# -- certificates: the branching blocks are a branching bisimulation -----------


def assert_branching_certificate(union, i1, i2):
    """The union's branching blocks pass the one-pass transfer check,
    and merging two of them, the initial states' when they differ,
    fails it: no partition coarser than the coarsest branching
    bisimulation is one.  Returns the blocks."""
    block, n_blocks = _branching_blocks(union)
    assert is_branching_bisimulation(union, block)
    if n_blocks > 1:
        kept, gone = (block[i1], block[i2]) if block[i1] != block[i2] else (0, 1)
        assert not is_branching_bisimulation(union, [kept if b == gone else b for b in block])
    return block


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_the_branching_blocks_of_every_fixture_weak_check_are_a_bisimulation(
        monkeypatch, capacity):
    real = topology.weak_bisim_check
    checks = []

    def recording(l1, l2, *args, **kwargs):
        verdict = real(l1, l2, *args, **kwargs)
        checks.append((l1, l2, verdict))
        return verdict

    monkeypatch.setattr(topology, "weak_bisim_check", recording)
    for path in sorted(FIXTURES.glob("*.padl")):
        verify_deadlock_by_reduction(load_arch(path.stem, capacity))
    assert checks
    for l1, l2, verdict in checks:
        union, i1, i2 = _disjoint_union(l1, l2)
        block = assert_branching_certificate(union, i1, i2)
        if block[i1] == block[i2]:
            assert verdict.equivalent


@settings(max_examples=300, deadline=None)
@given(lts_pairs())
def test_the_branching_blocks_of_random_unions_are_a_bisimulation(pair):
    assert_branching_certificate(*_disjoint_union(*pair))


def test_a_partition_that_is_no_branching_bisimulation_is_found():
    # a.b + a.c: the two a-successors differ, the two ends do not
    lts = from_traces(("a", "b"), ("a", "c"))
    block, n_blocks = _branching_blocks(lts)
    assert n_blocks == 4 and is_branching_bisimulation(lts, block)
    # tau.a against a: the tau step is inert only inside one block
    padded = from_traces(("tau", "a"))
    assert is_branching_bisimulation(padded, [0, 0, 1])
    assert not is_branching_bisimulation(padded, [0, 1, 1])
    assert not is_branching_bisimulation(padded, [0, 1, 0])
    assert not is_branching_bisimulation(lts, [0, 1, 2, 1, 2])


def test_a_pair_the_branching_quotient_merges_is_never_saturated(monkeypatch):
    # No check saturates: a merged pair starts no weak round, and a
    # distinct pair does.
    def refuse(*args):
        raise AssertionError("weak rounds")

    monkeypatch.setattr(equivalence, "_rounds", refuse)
    assert weak_bisim_check(from_traces(("a", "tau")), from_traces(("a",))).equivalent
    with pytest.raises(AssertionError, match="weak rounds"):
        weak_bisim_check(from_traces(("a",)), from_traces(("b",)))


def test_a_merged_pair_builds_no_quotient(monkeypatch):
    # The branching blocks of the union decide a merged pair, and their
    # number is its n_blocks; only a distinct pair is quotiented.
    rng = random.Random(19)
    pairs = [(from_traces(("a", "tau")), from_traces(("a",)))]
    for _ in range(30):
        lts = random_lts(rng)
        pairs.append((lts, tau_pad(lts, rng)))
    blocks = [branching_quotient(_disjoint_union(*pair)[0])[0].n_states for pair in pairs]

    def refuse(*args):
        raise AssertionError("quotient")

    monkeypatch.setattr(equivalence, "_quotient", refuse)
    assert [weak_bisim_check(*pair) for pair in pairs] == [
        EquivalenceVerdict(True, None, n) for n in blocks]
    with pytest.raises(AssertionError, match="quotient"):
        weak_bisim_check(from_traces(("a",)), from_traces(("b",)))


@pytest.mark.parametrize("check", [weak_bisim_check, strong_bisim_check])
@pytest.mark.parametrize("k", [1, 4, 12])
def test_refinement_stops_at_the_round_that_separates_the_pair(monkeypatch, check, k):
    # both checks refine by the one round loop, over weak or strong signatures
    real = equivalence._rounds
    histories = []

    def recording(n, signatures, keep, pair):
        parts, rounds = real(n, signatures, keep, pair)
        histories.append((n, signatures, rounds))
        return parts, rounds

    monkeypatch.setattr(equivalence, "_rounds", recording)
    assert not check(*alternating_pair(k)).equivalent
    [(n, signatures, rounds)] = histories
    # round 0, then one round each up to the separating round k + 1
    assert len(rounds) == k + 2
    _, full = real(n, signatures, MAX_FORMULA_ROUNDS + 1, None)
    assert len(full) > len(rounds) and full[:len(rounds)] == rounds


def test_a_distinct_weak_check_leaves_no_reference_cycle():
    # the formula's builder must not keep the refinement history and
    # the weak moves alive until the cyclic GC runs
    l1, l2 = from_traces(("a", "b")), from_traces(("a", "c"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert weak_bisim_check(l1, l2).formula is not None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_generation_and_or_rewriting_leave_no_reference_cycle():
    # generate_lts's emit and or_rewrite's walkers recurse through their
    # own cells: they must not keep a call's state table or rewritten
    # equations alive until the cyclic GC runs.  The drivers run with
    # the collector paused, so a cycle made inside one would live until
    # it returns: after each run on either route, at capacities 1-3 and
    # at a limit that some checks and direct runs hit, none is left.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for path in sorted(FIXTURES.glob("*.padl")):
            for capacity, limit in ((1, DEFAULT_STATE_LIMIT), (2, DEFAULT_STATE_LIMIT),
                                    (3, DEFAULT_STATE_LIMIT), (2, 10)):
                arch = load_arch(path.stem, capacity)
                assert gc.collect() == 0
                for aei in arch.real_aeis:
                    aei_semantics(arch, aei)
                assert gc.collect() == 0
                verify_deadlock_by_reduction(arch, "weak", limit)
                assert gc.collect() == 0, (path.stem, capacity, limit)
                verify_deadlock_direct(load_arch(path.stem, capacity), state_limit=limit)
                assert gc.collect() == 0, (path.stem, capacity, limit)
    finally:
        if enabled:
            gc.enable()


# -- weak rounds against the saturated refinement -------------------------------


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(0.3, 0.7), st.integers(1, 14))
def test_weak_rounds_are_the_rounds_of_the_saturated_refinement(rng, tau_bias, max_states):
    # saturate is the reference: the weak rounds and the weak moves
    # must be what refining and reading its rows give, round for round
    reduced, _ = branching_quotient(random_lts(rng, max_states=max_states, tau_bias=tau_bias))
    saturated = saturate(reduced)
    keep = MAX_FORMULA_ROUNDS + 1
    pair = (rng.randrange(reduced.n_states), rng.randrange(reduced.n_states))
    assert weak_rounds(reduced, keep) == refine(saturated, keep)
    assert weak_rounds(reduced, keep, pair) == refine(saturated, keep, pair)
    moves = _weak_moves(reduced)
    for s, ts in enumerate(saturated.trans):
        assert moves(s) == {(l, d) for l, d, _, _ in ts}
    # the budget is passed only where saturating would exceed it
    budget = rng.randrange(2 * sum(map(len, saturated.trans)) + 1)
    for args in ((keep, None, budget), (keep, pair, budget)):
        try:
            weak_rounds(reduced, *args)
        except StateLimitExceeded as exc:
            assert str(exc).startswith(f"saturation budget {budget} exceeded (")
            with pytest.raises(StateLimitExceeded):
                saturate(reduced, budget)


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("name", ["cycle_dying_member", "mutant_detector_halt"])
def test_reduction_never_saturates(monkeypatch, name, capacity):
    # both fixtures have distinct checks with formulas, all now decided
    # by weak rounds on the branching quotient
    def outcomes():
        result = verify_deadlock_by_reduction(load_arch(name, capacity))
        return result.status, [(o.equivalent, o.formula_text)
                               for c in result.conditions for o in c.outcomes]

    expected = outcomes()
    assert any(formula for _, formula in expected[1])

    def refuse(lts, max_transitions=None):
        raise AssertionError("saturated")

    monkeypatch.setattr(equivalence, "saturate", refuse)
    assert outcomes() == expected
