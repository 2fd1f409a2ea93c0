"""Minimized composition against the plain product.

check_interoperability minimizes the cycle while composing it
(composite_semantics with a kept set).  Every check here is recomputed
the way it was before that: the plain left-associated product, hidden
down to the member's visible set, its shared queue names and exceptions
hidden, resolved.  Both must be weakly bisimilar, so that they give the same verdict,
and have the same saturation flag, and a distinguishing formula of the minimized
check must hold on the plain product and fail on the member alone.
"""

from __future__ import annotations

import importlib
import random

import pytest

from conftest import FIXTURES, load_arch
from test_random_architectures import _SSYNC_HEAVY, random_architecture
from padlver import validate
from padlver.diagnostics import StateLimitExceeded
from padlver.elaborate import (
    aei_semantics,
    build_name_sets,
    composite_semantics,
    e_set,
    elaborate,
    h_set,
)
from padlver.equivalence import eval_formula, weak_bisim_check
from padlver.lts import hide, resolve
from padlver.topology import build_flow_graph, check_interoperability, decompose

elaborate_module = importlib.import_module("padlver.elaborate")

def plain_lhs(arch, cycle, member, state_limit):
    """The interoperability lhs as the plain product computes it."""
    context = arch.real_aeis
    parts = [
        (aei, aei_semantics(arch, aei, context=context,
                            closure="pc" if aei == member else "tc",
                            buffers_for=cycle, state_limit=state_limit))
        for aei in cycle
    ]
    lhs = composite_semantics(arch, parts, state_limit)
    lhs = hide(lhs, keep_only=build_name_sets(arch, member, context).visible)
    others = set(cycle) - {member}
    hidden = h_set(arch, member, others) | e_set(arch, member, others)
    if hidden:
        lhs = hide(lhs, keep_only=set(lhs.labels) - hidden)
    return resolve(lhs)


def compare_every_interoperability_check(arch, state_limit) -> int:
    """Run the differential on every (union, member) of arch; returns
    the number of checks compared (a check over a limit is skipped)."""
    compared = 0
    for union in decompose(build_flow_graph(arch.source)).cyclic_unions:
        for member in union:
            try:
                plain = plain_lhs(arch, union, member, state_limit)
                reduced = check_interoperability(arch, union, member, state_limit)
                same = weak_bisim_check(reduced.lhs, plain, saturation_budget=8 * state_limit)
            except StateLimitExceeded:
                continue
            where = (arch.name, union, member)
            # weakly bisimilar lhs give the same verdict against any rhs
            assert same.equivalent, where
            assert reduced.saturated == bool(plain.marked), where
            assert reduced.lhs_states <= plain.n_states, where
            formula = reduced.verdict.formula
            if formula is not None:
                assert eval_formula(plain, formula), where
                assert not eval_formula(reduced.rhs, formula), where
            compared += 1
    return compared


@pytest.fixture
def steps(monkeypatch):
    """Steps of minimized compositions: {"steps": n, "quotiented": n}.
    composite_semantics passes restrict the pending names after every
    step but the last, and only there."""
    counts = {"steps": 0, "quotiented": 0}
    real_quotient = elaborate_module.branching_quotient
    real_restrict = elaborate_module.restrict

    def quotient(lts):
        counts["quotiented"] += 1
        return real_quotient(lts)

    def restrict(lts, keep, *pending):
        counts["steps"] += len(pending)
        return real_restrict(lts, keep, *pending)

    monkeypatch.setattr(elaborate_module, "branching_quotient", quotient)
    monkeypatch.setattr(elaborate_module, "restrict", restrict)
    return counts


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.padl")))
def test_minimized_interoperability_matches_the_plain_product_on_fixtures(name, capacity):
    arch = load_arch(name, capacity)
    compare_every_interoperability_check(arch, state_limit=1_000_000)


def test_minimized_interoperability_matches_the_plain_product_on_the_harness_draws(steps):
    # The soundness harness's draws at its seed.
    rng = random.Random(4242)
    compared = 0
    for _ in range(400):
        description = random_architecture(rng)
        arch = elaborate(validate(description), capacity=rng.randint(1, 2))
        compared += compare_every_interoperability_check(arch, state_limit=100_000)
    assert compared >= 300
    assert steps["quotiented"] > 0


def test_minimized_interoperability_matches_the_plain_product_on_ssync_heavy_draws(steps):
    rng = random.Random(5150)
    compared = 0
    for _ in range(150):
        description = random_architecture(rng, _SSYNC_HEAVY)
        arch = elaborate(validate(description), capacity=rng.randint(1, 2))
        compared += compare_every_interoperability_check(arch, state_limit=100_000)
    assert compared >= 150
    # here the rule bars the quotient at most steps: a semi-synchronous
    # move still waits for a later part
    assert steps["quotiented"] < steps["steps"] / 2
