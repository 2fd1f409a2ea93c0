"""Benchmark inputs: PADL text for each workload, with its known answers.

Every input is plain PADL source.  The verifier under test only ever
sees that text; the generators below live in the benchmark so that the
inputs stay fixed while the program changes.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``random-suite``: the first 100 draws of the soundness harness's
  random-architecture generator at seed 4242 (a frozen copy follows),
  with the harness's queue capacity draw after each description.
- ``star``: an N-client star, N = 2..6, asynchronous (SSYNC requests
  with a ``.success`` guard, ASYNC OR responses with DEP) at queue
  capacities 1..3 (N = 6 at capacity 1 only), and synchronous.
- ``ring``: N = 3..8 members in one cyclic union linked SYNC UNI
  ``pass`` -> ``take``.
- ``fixtures``: the PADL files under ``tests/fixtures`` at capacities 1..3.

The benchmark's ``--seed`` permutes the order in which the inputs run
and, for generated workloads, salts every instance name.  Neither
changes the work a route does nor its verdict, so figures from different
seeds are comparable.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path

from padlver import model as m
from padlver.pretty import pretty_print

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES_DIR = ROOT / "tests" / "fixtures"
RANDOM_VERDICTS = HERE / "random_suite_verdicts.json"

ROUTES = ("reduce", "direct")

RANDOM_SUITE_SEED = 4242
RANDOM_SUITE_SIZE = 100
RANDOM_SUITE_STATE_LIMIT = 40_000
STATE_LIMIT = 1_000_000  # the CLI default
STAR_SIZES = range(2, 7)
STAR_CAPACITIES = (1, 2, 3)
STAR_CAPACITY_1_FROM = 6  # at N=6, capacities 2 and 3 take 5 s and 16 s of direct alone
RING_SIZES = range(3, 9)  # N=9 alone takes 13 s per pass
FIXTURE_CAPACITIES = (1, 2, 3)

FREE = {"reduce": "deadlock_free", "direct": "deadlock_free"}
CF_DEADLOCK = {"reduce": "conditions_failed", "direct": "deadlock"}

# Known answers for the fixtures at every capacity in FIXTURE_CAPACITIES,
# as asserted by tests/test_acceptance.py and tests/test_topology.py.
FIXTURE_ANSWERS: dict[str, dict[str, str]] = {
    "client_server_sync": FREE,
    "client_server_async": FREE,
    "cruise_control": FREE,
    "two_islands": FREE,
    "deadlock_pair": CF_DEADLOCK,
    "mutant_server_silent": CF_DEADLOCK,
    "mutant_detector_halt": {"reduce": "conditions_failed", "direct": "deadlock_free"},
    "mutant_panel_no_catch": CF_DEADLOCK,
    "sulky_receiver": CF_DEADLOCK,
    "cycle_dying_member": CF_DEADLOCK,
}


@dataclass(frozen=True)
class Input:
    """One architecture to verify by both routes."""

    name: str  # instance label: input index, or N and capacity
    text: str
    capacity: int
    state_limit: int
    expected: dict[str, str]  # route -> known status (definite outcomes only)


# ---------------------------------------------------------------------------
# Frozen copy of the soundness harness's generator
# (tests/test_random_architectures.py::random_architecture)
# ---------------------------------------------------------------------------

_SYNCS = (
    [m.Synchronicity.SYNC] * 4
    + [m.Synchronicity.SSYNC] * 1
    + [m.Synchronicity.ASYNC] * 1
)


def random_architecture(rng: random.Random) -> m.ArchiDescription:
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
            m.InteractionDecl(out, m.Direction.OUTPUT, m.Multiplicity.UNI, rng.choice(_SYNCS))
        )
        decls[dst].append(
            m.InteractionDecl(inp, m.Direction.INPUT, m.Multiplicity.UNI, rng.choice(_SYNCS))
        )
        attachments.append(m.Attachment(src, out, dst, inp))

    aets, instances = [], []
    for nm in names:
        inters = decls[nm]
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
        aets.append(m.AetDef(f"{nm}_Type", (), tuple(equations), tuple(inters)))
        instances.append(m.Instance(nm, f"{nm}_Type", ()))
    return m.ArchiDescription(
        "Random_AT", (), tuple(aets), tuple(instances), (), tuple(attachments)
    )


def random_suite_draws(
    seed: int = RANDOM_SUITE_SEED, size: int = RANDOM_SUITE_SIZE
) -> list[tuple[m.ArchiDescription, int]]:
    """(description, capacity) pairs in the harness's draw order."""
    rng = random.Random(seed)
    draws = []
    for _ in range(size):
        description = random_architecture(rng)
        draws.append((description, rng.randint(1, 2)))
    return draws


def rename_instances(description: m.ArchiDescription, salt: str) -> m.ArchiDescription:
    """Append `salt` to every instance name (instances and attachments)."""
    if not salt:
        return description
    instances = tuple(
        dataclasses.replace(inst, name=inst.name + salt) for inst in description.instances
    )
    attachments = tuple(
        dataclasses.replace(att, from_aei=att.from_aei + salt, to_aei=att.to_aei + salt)
        for att in description.attachments
    )
    return dataclasses.replace(description, instances=instances, attachments=attachments)


def stored_random_verdicts() -> list[dict]:
    """Per-input statuses recorded by record_verdicts.py at the commit
    named in the file."""
    return json.loads(RANDOM_VERDICTS.read_text(encoding="utf-8"))["inputs"]


def _random_suite(salt: str) -> list[Input]:
    stored = stored_random_verdicts()
    inputs = []
    for k, (description, capacity) in enumerate(random_suite_draws()):
        record = stored[k]
        expected = {route: record[route] for route in ROUTES if record[route] != "inconclusive"}
        inputs.append(Input(
            f"random-suite#{k:03d}",
            pretty_print(rename_instances(description, salt)),
            capacity,
            RANDOM_SUITE_STATE_LIMIT,
            expected,
        ))
    return inputs


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

_STAR_ASYNC_TYPES = """\
    ARCHI_ELEM_TYPE Server_Type(void)
      BEHAVIOR
        Server(void; void) =
          receive_request . compute_response . send_response . Server()
      INPUT_INTERACTIONS  SYNC  OR receive_request
      OUTPUT_INTERACTIONS ASYNC OR send_response DEP receive_request

    ARCHI_ELEM_TYPE Client_Type(void)
      BEHAVIOR
        Client_Internal(void; void) =
          process . Client_Interacting();
        Client_Interacting(void; void) =
          send_request .
            choice
            {
              cond(send_request.success = true) ->
                          receive_response . Client_Internal(),
              cond(send_request.success = false) ->
                          keep_processing . Client_Interacting()
            }
      INPUT_INTERACTIONS  SYNC  UNI receive_response
      OUTPUT_INTERACTIONS SSYNC UNI send_request
"""

_STAR_SYNC_TYPES = """\
    ARCHI_ELEM_TYPE Server_Type(void)
      BEHAVIOR
        Server(void; void) =
          receive_request . compute_response . send_response . Server()
      INPUT_INTERACTIONS  OR receive_request
      OUTPUT_INTERACTIONS OR send_response DEP receive_request

    ARCHI_ELEM_TYPE Client_Type(void)
      BEHAVIOR
        Client(void; void) =
          process . send_request . receive_response . Client()
      INPUT_INTERACTIONS  UNI receive_response
      OUTPUT_INTERACTIONS UNI send_request
"""


def _ring_member(aet: str, step: str) -> str:
    return f"""\
    ARCHI_ELEM_TYPE {aet}(void)
      BEHAVIOR
        B0(void; void) =
          choice
          {{
            think . B1(),
            {step} . B0()
          }};
        B1(void; void) =
          choice
          {{
            think . B0(),
            {step} . B1()
          }}
      INPUT_INTERACTIONS  SYNC UNI take
      OUTPUT_INTERACTIONS SYNC UNI pass
"""


def _architecture(
    name: str, types: str, instances: list[tuple[str, str]], attachments: list[tuple[str, str]]
) -> str:
    inst_lines = ";\n".join(f"      {inst} : {aet}()" for inst, aet in instances)
    att_lines = ";\n".join(f"      FROM {src} TO {dst}" for src, dst in attachments)
    return (
        f"ARCHI_TYPE {name}(void)\n\n  ARCHI_BEHAVIOR\n\n{types}\n"
        "  ARCHI_TOPOLOGY\n    ARCHI_ELEM_INSTANCES\n"
        f"{inst_lines}\n    ARCHI_INTERACTIONS\n      void\n"
        f"    ARCHI_ATTACHMENTS\n{att_lines}\n\nEND\n"
    )


def star_text(n: int, synchronous: bool, salt: str = "") -> str:
    """A server S with n clients C_1..C_n (client_server_*.padl generalized)."""
    server = "S" + salt
    clients = [f"C_{i}{salt}" for i in range(1, n + 1)]
    attachments = [(f"{c}.send_request", f"{server}.receive_request") for c in clients]
    attachments += [(f"{server}.send_response", f"{c}.receive_response") for c in clients]
    return _architecture(
        f"Star_{'Sync' if synchronous else 'Async'}_{n}",
        _STAR_SYNC_TYPES if synchronous else _STAR_ASYNC_TYPES,
        [(server, "Server_Type")] + [(c, "Client_Type") for c in clients],
        attachments,
    )


def ring_text(n: int, salt: str = "") -> str:
    """Members R_1..R_n passing a token around one cycle; R_1 starts with it."""
    members = [f"R_{i}{salt}" for i in range(1, n + 1)]
    types = _ring_member("Head_Type", "pass . take") + "\n" + _ring_member(
        "Member_Type", "take . pass"
    )
    return _architecture(
        f"Ring_{n}",
        types,
        [(members[0], "Head_Type")] + [(r, "Member_Type") for r in members[1:]],
        [(f"{a}.pass", f"{b}.take") for a, b in zip(members, members[1:] + members[:1])],
    )


def _star(salt: str) -> list[Input]:
    inputs = []
    for n in STAR_SIZES:
        for capacity in STAR_CAPACITIES:
            if n >= STAR_CAPACITY_1_FROM and capacity > 1:
                continue
            inputs.append(Input(f"star-async N={n} cap={capacity}",
                                star_text(n, False, salt), capacity, STATE_LIMIT, FREE))
        inputs.append(Input(f"star-sync N={n}", star_text(n, True, salt), 1, STATE_LIMIT, FREE))
    return inputs


def _ring(salt: str) -> list[Input]:
    return [Input(f"ring N={n}", ring_text(n, salt), 1, STATE_LIMIT, FREE) for n in RING_SIZES]


def _fixtures() -> list[Input]:
    inputs = []
    for name, expected in FIXTURE_ANSWERS.items():
        text = (FIXTURES_DIR / f"{name}.padl").read_text(encoding="utf-8")
        for capacity in FIXTURE_CAPACITIES:
            inputs.append(Input(f"{name} cap={capacity}", text, capacity, STATE_LIMIT, expected))
    return inputs


def salt_for(seed: int) -> str:
    """A suffix for instance names, e.g. ``_kqz``."""
    rng = random.Random(seed)
    return "_" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's inputs in the order `seed` selects."""
    salt = salt_for(seed)
    if workload == "random-suite":
        inputs = _random_suite(salt)
    elif workload == "star":
        inputs = _star(salt)
    elif workload == "ring":
        inputs = _ring(salt)
    elif workload == "fixtures":
        inputs = _fixtures()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(inputs)
    return inputs
