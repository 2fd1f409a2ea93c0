"""Randomized soundness harness for the reduction driver.

Generates small random architectures (random behaviors, random
tree-plus-chord topologies, mixed synchronicity qualifiers) and checks
that whenever the compositional conditions hold, the reduction verdict
matches the direct whole-system model check.  This is the strongest
desk-scale evidence the driver can offer beyond the bundled fixtures.
"""

from __future__ import annotations

import random

from padlver import elaborate, validate
from padlver import model as m
from padlver.diagnostics import StateLimitExceeded
from padlver.topology import verify_deadlock_by_reduction, verify_deadlock_direct

_SYNCS = (
    [m.Synchronicity.SYNC] * 4
    + [m.Synchronicity.SSYNC] * 1
    + [m.Synchronicity.ASYNC] * 1
)
# Semi-synchronous interactions the likeliest, for draws that stress
# exceptions; every existing seed draws from _SYNCS.
_SSYNC_HEAVY = (
    [m.Synchronicity.SYNC] * 1
    + [m.Synchronicity.SSYNC] * 4
    + [m.Synchronicity.ASYNC] * 1
)


def random_architecture(
    rng: random.Random, syncs: list[m.Synchronicity] = _SYNCS
) -> m.ArchiDescription:
    """A draw of 2-4 nodes on a random tree plus, often, one chord;
    each interaction's qualifier is drawn from syncs."""
    n = rng.randint(2, 4)
    names = [f"N_{i}" for i in range(1, n + 1)]
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        edges.append((rng.randrange(i), i))
    if n >= 3 and rng.random() < 0.6:
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in edges and (j, i) not in edges
        ]
        if candidates:
            edges.append(rng.choice(candidates))

    decls: dict[str, list[m.InteractionDecl]] = {nm: [] for nm in names}
    attachments = []
    for k, (i, j) in enumerate(edges):
        if rng.random() < 0.5:
            src, dst = names[i], names[j]
        else:
            src, dst = names[j], names[i]
        out, inp = f"snd_{k}", f"rcv_{k}"
        decls[src].append(
            m.InteractionDecl(out, m.Direction.OUTPUT, m.Multiplicity.UNI, rng.choice(syncs))
        )
        decls[dst].append(
            m.InteractionDecl(inp, m.Direction.INPUT, m.Multiplicity.UNI, rng.choice(syncs))
        )
        attachments.append(m.Attachment(src, out, dst, inp))

    aets = [random_aet(rng, f"{nm}_Type", decls[nm]) for nm in names]
    instances = [m.Instance(nm, f"{nm}_Type", ()) for nm in names]
    return m.ArchiDescription(
        "Random_AT", (), tuple(aets), tuple(instances), (), tuple(attachments)
    )


def random_aet(
    rng: random.Random, name: str, inters: list[m.InteractionDecl]
) -> m.AetDef:
    """An AET with the given interactions and a random behavior: 1-2
    equations, each a choice of 1-3 chains of 1-3 actions drawn from the
    interactions and one internal action, ending in an invocation or,
    rarely, stop; an interaction no chain uses gets a branch of its own."""
    pool = [d.name for d in inters] + [f"w{rng.randint(0, 1)}"]
    eq_names = [f"B{e}" for e in range(rng.randint(1, 2))]
    equations = []
    used: set[str] = set()
    for eqn in eq_names:
        branches = []
        for _ in range(rng.randint(1, 3)):
            chain = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            used.update(chain)
            body: m.ProcessBody = (
                m.Stop() if rng.random() < 0.06 else m.Invoke(rng.choice(eq_names), ())
            )
            for action in reversed(chain):
                body = m.Prefix(action, body)
            branches.append(m.Branch(None, body))
        equations.append(m.BehaviorEquation(eqn, (), m.Choice(tuple(branches))))
    missing = [d.name for d in inters if d.name not in used]
    if missing:
        extra = list(equations[0].body.branches)
        for action in missing:
            extra.append(m.Branch(None, m.Prefix(action, m.Invoke(eq_names[0], ()))))
        equations[0] = m.BehaviorEquation(eq_names[0], (), m.Choice(tuple(extra)))
    return m.AetDef(name, (), tuple(equations), tuple(inters))


def test_reduction_agrees_with_direct_on_random_architectures():
    rng = random.Random(4242)
    held = skipped = 0
    for _ in range(400):
        description = random_architecture(rng)
        arch = elaborate(validate(description), capacity=rng.randint(1, 2))
        try:
            reduction = verify_deadlock_by_reduction(arch, state_limit=100_000)
            direct = verify_deadlock_direct(arch, state_limit=100_000)
        except StateLimitExceeded:
            skipped += 1
            continue
        if direct.status == "inconclusive" or reduction.status == "inconclusive":
            skipped += 1
            continue
        if reduction.status == "conditions_failed":
            continue
        held += 1
        assert reduction.status == direct.status, (
            f"reduction={reduction.status} direct={direct.status} on\n{description}"
        )
    # the generator must actually exercise the transfer, in both verdicts
    assert held >= 30, f"only {held} random architectures satisfied the conditions"


def test_random_architectures_cover_both_verdicts():
    rng = random.Random(77997)
    verdicts = set()
    for _ in range(200):
        description = random_architecture(rng)
        arch = elaborate(validate(description), capacity=1)
        try:
            reduction = verify_deadlock_by_reduction(arch, state_limit=200_000)
        except StateLimitExceeded:
            continue
        if reduction.status in ("deadlock_free", "deadlock"):
            direct = verify_deadlock_direct(arch, state_limit=200_000)
            assert reduction.status == direct.status
            verdicts.add(reduction.status)
    assert "deadlock_free" in verdicts
    assert "deadlock" in verdicts


def test_random_suite_041_fits_the_saturation_budget():
    # The benchmark's random-suite input #041: its three
    # interoperability checks used to exceed the saturation budget
    # (8 x the state limit), so reduction ended inconclusive.
    rng = random.Random(4242)
    for _ in range(42):
        description = random_architecture(rng)
        capacity = rng.randint(1, 2)
    assert capacity == 1
    arch = elaborate(validate(description), capacity=capacity)
    reduction = verify_deadlock_by_reduction(arch, state_limit=40_000)
    assert reduction.status == "conditions_failed"
    failed = {c.condition: c for c in reduction.conditions if c.condition in ("2a", "2c")}
    assert sorted(failed) == ["2a", "2c"]
    assert all(c.holds is False and c.detail is None for c in failed.values())
    assert verify_deadlock_direct(arch, state_limit=40_000).status == "deadlock"
