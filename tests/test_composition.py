"""Minimized composition against the plain product.

The architectural check composes its members through
composite_semantics, which minimizes a cycle while composing it; a
compatibility check is its two-member case.  Every interoperability
check and both directions of every star pair are recomputed here as
the plain left-associated product (plain_product), hidden down to
the member's visible set, its shared queue names and exceptions hidden,
resolved.  Both must be weakly bisimilar, so that they give the same
verdict, and have the same saturation flag, and a distinguishing
formula of the minimized check must hold on the plain product and fail
on the member alone.

A compatibility partner is totally closed relative to every AEI.
Closing it relative to the star around the center instead, with the
names the pair shares hidden after composing, must give a weakly
bisimilar lhs and the same verdict.
"""

from __future__ import annotations

import importlib
import random

import pytest

from conftest import FIXTURES, check_evidence, e_set, load_arch, plain_product
from test_random_architectures import _SSYNC_HEAVY, _SYNCS, random_architecture
from padlver import validate
from padlver.diagnostics import StateLimitExceeded
from padlver.elaborate import (
    aei_semantics,
    build_name_sets,
    elaborate,
    h_set,
)
from padlver.equivalence import eval_formula, weak_bisim_check
from padlver.lts import hide, resolve, restrict
from padlver.topology import (
    SATURATION_BUDGET_FACTOR,
    build_flow_graph,
    check_compatibility,
    check_interoperability,
    decompose,
)

elaborate_module = importlib.import_module("padlver.elaborate")

def plain_lhs(arch, cycle, member, state_limit):
    """The check's lhs as the plain product computes it."""
    context = arch.real_aeis
    parts = [
        (aei, aei_semantics(arch, aei, context=context,
                            closure="pc" if aei == member else "tc",
                            buffers_for=cycle, state_limit=state_limit))
        for aei in cycle
    ]
    lhs = plain_product(arch, parts, state_limit)
    lhs = hide(lhs, keep_only=build_name_sets(arch, member, context).visible)
    others = set(cycle) - {member}
    hidden = h_set(arch, member, others) | e_set(arch, member, others)
    if hidden:
        lhs = hide(lhs, keep_only=set(lhs.labels) - hidden)
    return resolve(lhs)


def every_check(arch, kind):
    """(members, member) for every check of the kind on arch: each
    (union, member), or both directions of every star pair."""
    deco = decompose(build_flow_graph(arch.source))
    if kind == "interoperability":
        for union in deco.cyclic_unions:
            for member in union:
                yield union, member
    else:
        for star in deco.stars:
            for partner in star.border:
                yield (star.center, partner), star.center
                yield (partner, star.center), partner


def compare_every_check(arch, state_limit, kind="interoperability") -> int:
    """Run the differential on every check of the kind on arch; returns
    the number of checks compared (a check over a limit is skipped)."""
    compared = 0
    budget = SATURATION_BUDGET_FACTOR * state_limit
    for members, member in every_check(arch, kind):
        try:
            plain = plain_lhs(arch, members, member, state_limit)
            if kind == "interoperability":
                reduced = check_interoperability(arch, members, member, state_limit)
            else:
                reduced = check_compatibility(arch, *members, state_limit)
            lhs, rhs, verdict = check_evidence(arch, reduced, state_limit)
            same = weak_bisim_check(lhs, plain, saturation_budget=budget)
        except StateLimitExceeded:
            continue
        where = (arch.name, members, member)
        # weakly bisimilar lhs give the same verdict against any rhs
        assert same.equivalent, where
        assert reduced.saturated == bool(plain.marked), where
        assert reduced.lhs_states <= plain.n_states, where
        if verdict.formula is not None:
            assert eval_formula(plain, verdict.formula), where
            assert not eval_formula(rhs, verdict.formula), where
        compared += 1
    return compared


@pytest.fixture
def steps(monkeypatch):
    """Steps of minimized compositions: {"steps": n, "quotiented": n}.
    composite_semantics passes parallel the pending names after every
    step but the last, and only there; the queue cascades of
    aei_semantics pass none."""
    counts = {"steps": 0, "quotiented": 0}
    real_quotient = elaborate_module.branching_quotient
    real_parallel = elaborate_module.parallel

    def quotient(lts):
        counts["quotiented"] += 1
        return real_quotient(lts)

    def parallel(*args, **kwargs):
        counts["steps"] += "pending" in kwargs
        return real_parallel(*args, **kwargs)

    monkeypatch.setattr(elaborate_module, "branching_quotient", quotient)
    monkeypatch.setattr(elaborate_module, "parallel", parallel)
    return counts


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.padl")))
def test_minimized_interoperability_matches_the_plain_product_on_fixtures(name, capacity):
    arch = load_arch(name, capacity)
    compare_every_check(arch, state_limit=1_000_000)


def draws(seed: int, count: int, syncs=_SYNCS):
    """Draws of the soundness harness's generator, each elaborated at a
    drawn capacity; 4242 is the harness's own seed."""
    rng = random.Random(seed)
    for _ in range(count):
        description = random_architecture(rng, syncs)
        yield elaborate(validate(description), capacity=rng.randint(1, 2))


def test_minimized_interoperability_matches_the_plain_product_on_the_harness_draws(steps):
    compared = sum(compare_every_check(arch, state_limit=100_000) for arch in draws(4242, 400))
    assert compared >= 300
    assert steps["quotiented"] > 0


def test_minimized_interoperability_matches_the_plain_product_on_ssync_heavy_draws(steps):
    compared = sum(compare_every_check(arch, state_limit=100_000)
                   for arch in draws(5150, 150, _SSYNC_HEAVY))
    assert compared >= 150
    # here the rule bars the quotient at most steps: a semi-synchronous
    # move still waits for a later part
    assert steps["quotiented"] < steps["steps"] / 2


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.padl")))
def test_compatibility_matches_the_plain_product_on_fixtures(name, capacity):
    arch = load_arch(name, capacity)
    compare_every_check(arch, 1_000_000, "compatibility")


@pytest.mark.parametrize("seed, count, syncs, least", [
    pytest.param(4242, 400, _SYNCS, 800, id="harness"),
    pytest.param(5150, 150, _SSYNC_HEAVY, 300, id="ssync-heavy"),
])
def test_compatibility_matches_the_plain_product_on_draws(seed, count, syncs, least):
    compared = sum(compare_every_check(arch, 100_000, "compatibility")
                   for arch in draws(seed, count, syncs))
    assert compared >= least


def test_the_kept_set_never_holds_an_exception_shared_with_the_other_members():
    # The check hides only the shared queue names (h_set): its visible
    # set holds composite names and the member's own converted-input
    # exceptions, never an exception e_set names, which plain_lhs hides.
    archs = [load_arch(name, capacity)
             for name in sorted(p.stem for p in FIXTURES.glob("*.padl"))
             for capacity in (1, 2, 3)]
    archs += draws(4242, 400)
    archs += draws(5150, 150, _SSYNC_HEAVY)
    checked = with_exceptions = 0
    for arch in archs:
        for kind in ("compatibility", "interoperability"):
            for members, member in every_check(arch, kind):
                exceptions = e_set(arch, member, set(members) - {member})
                visible = build_name_sets(arch, member, arch.real_aeis).visible
                assert exceptions & visible == frozenset(), (arch.name, members, member)
                checked += 1
                with_exceptions += bool(exceptions)
    assert checked >= 2000 and with_exceptions >= 1000


def star_context_lhs(arch, center, partner, state_limit):
    """The compatibility lhs with the partner totally closed relative
    to the star around the center, the names the pair shares hidden
    after composing."""
    border = {aei for att in arch.source.description.attachments
              if center in (att.from_aei, att.to_aei)
              for aei in (att.from_aei, att.to_aei)} - {center}
    star = (center,) + tuple(aei for aei in arch.real_aeis if aei in border)
    lhs = plain_product(arch, (
        (center, aei_semantics(arch, center, context=arch.real_aeis, closure="pc",
                               buffers_for=(partner,), state_limit=state_limit)),
        (partner, aei_semantics(arch, partner, context=star, closure="tc",
                                buffers_for=(center,), state_limit=state_limit)),
    ), state_limit)
    shared = h_set(arch, center, {partner}) | e_set(arch, center, {partner})
    return restrict(lhs, set(lhs.labels) - shared)


def compare_with_the_star_context(arch, state_limit) -> int:
    """Check every compatibility check of arch against its star-context
    construction; returns the number compared."""
    compared = 0
    budget = SATURATION_BUDGET_FACTOR * state_limit
    for (center, partner), _ in every_check(arch, "compatibility"):
        try:
            in_star = star_context_lhs(arch, center, partner, state_limit)
            outcome = check_compatibility(arch, center, partner, state_limit)
            lhs, rhs, _ = check_evidence(arch, outcome, state_limit)
            same = weak_bisim_check(lhs, in_star, saturation_budget=budget)
            verdict = weak_bisim_check(in_star, rhs, saturation_budget=budget)
        except StateLimitExceeded:
            continue
        where = (arch.name, center, partner)
        assert same.equivalent, where
        assert verdict.equivalent == outcome.equivalent, where
        assert outcome.saturated == bool(in_star.marked), where
        compared += 1
    return compared


def test_closing_the_partner_relative_to_every_aei_keeps_the_star_context_verdict():
    compared = 0
    for name in sorted(p.stem for p in FIXTURES.glob("*.padl")):
        for capacity in (1, 2, 3):
            compared += compare_with_the_star_context(load_arch(name, capacity), 1_000_000)
    for arch in draws(4242, 400):
        compared += compare_with_the_star_context(arch, 100_000)
    for arch in draws(5150, 150, _SSYNC_HEAVY):
        compared += compare_with_the_star_context(arch, 100_000)
    assert compared >= 1200
