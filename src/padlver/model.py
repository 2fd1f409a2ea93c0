"""Abstract syntax of PADL architectural descriptions.

The nodes mirror the textual notation: an architectural type holds a
behavior section (architectural element types with process-algebraic
defining equations and qualified interactions) and a topology section
(instances, architectural interactions, attachments).

Data domains are restricted to booleans and bounded integers with
declared ranges, which keeps every behavior finite-state.  Source
locations are carried for diagnostics but excluded from equality so
that structural comparison (used by the pretty-printer round-trip)
ignores layout.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from .diagnostics import Loc


class Direction(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class Multiplicity(enum.Enum):
    UNI = "UNI"
    AND = "AND"
    OR = "OR"


class Synchronicity(enum.Enum):
    SYNC = "SYNC"
    SSYNC = "SSYNC"
    ASYNC = "ASYNC"


# ---------------------------------------------------------------------------
# Data types and expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoolType:
    def render(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class IntType:
    lo: int
    hi: int

    def render(self) -> str:
        return f"int({self.lo}..{self.hi})"


DataType = BoolType | IntType


@dataclass(frozen=True)
class BoolLit:
    value: bool
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class IntLit:
    value: int
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class SuccessVar:
    """The implicit boolean set by each execution of a semi-synchronous
    interaction, written ``x.success``."""

    action: str
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # a key of UNARY_OPS
    operand: "Expr"
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # a key of BINARY_OPS
    left: "Expr"
    right: "Expr"
    loc: Loc = field(default_factory=Loc, compare=False)


Expr = BoolLit | IntLit | Var | SuccessVar | Unary | Binary


# ---------------------------------------------------------------------------
# Operators: the one table the parser, type checker, evaluator and
# printer all read
# ---------------------------------------------------------------------------

# Binding levels, loosest first: a higher level binds tighter.
OR_LEVEL, AND_LEVEL, NOT_LEVEL, CMP_LEVEL, ADD_LEVEL, ATOM_LEVEL = range(1, 7)


@dataclass(frozen=True)
class Operator:
    """A guard operator: its binding level, the types it takes and gives,
    and the function that evaluates it."""

    level: int
    operand: str | None  # "bool" or "int"; None: either, the same on both sides
    result: str
    apply: Callable[..., bool | int]

    @property
    def chains(self) -> bool:
        """Whether ``a op b op c`` parses, as ``(a op b) op c``; a
        comparison does not chain."""
        return self.level != CMP_LEVEL


BINARY_OPS: dict[str, Operator] = {
    "or": Operator(OR_LEVEL, "bool", "bool", lambda a, b: bool(a or b)),
    "and": Operator(AND_LEVEL, "bool", "bool", lambda a, b: bool(a and b)),
    "=": Operator(CMP_LEVEL, None, "bool", operator.eq),
    "/=": Operator(CMP_LEVEL, None, "bool", operator.ne),
    "<": Operator(CMP_LEVEL, None, "bool", operator.lt),
    "<=": Operator(CMP_LEVEL, None, "bool", operator.le),
    ">": Operator(CMP_LEVEL, None, "bool", operator.gt),
    ">=": Operator(CMP_LEVEL, None, "bool", operator.ge),
    "+": Operator(ADD_LEVEL, "int", "int", operator.add),
    "-": Operator(ADD_LEVEL, "int", "int", operator.sub),
}

UNARY_OPS: dict[str, Operator] = {
    "not": Operator(NOT_LEVEL, "bool", "bool", operator.not_),
    "-": Operator(ATOM_LEVEL, "int", "int", operator.neg),
}


# ---------------------------------------------------------------------------
# Process bodies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stop:
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Invoke:
    equation: str
    args: tuple[Expr, ...]
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Prefix:
    action: str
    cont: "ProcessBody"
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Branch:
    guard: Expr | None
    body: "ProcessBody"
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Choice:
    branches: tuple[Branch, ...]
    loc: Loc = field(default_factory=Loc, compare=False)


ProcessBody = Stop | Invoke | Prefix | Choice


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    type: DataType
    default: Expr | None = None
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class BehaviorEquation:
    name: str
    params: tuple[Param, ...]
    body: ProcessBody
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class InteractionDecl:
    name: str
    direction: Direction
    multiplicity: Multiplicity
    synchronicity: Synchronicity
    dep_on: str | None = None
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class AetDef:
    name: str
    params: tuple[Param, ...]
    equations: tuple[BehaviorEquation, ...]
    interactions: tuple[InteractionDecl, ...]
    loc: Loc = field(default_factory=Loc, compare=False)

    def interaction(self, name: str) -> InteractionDecl | None:
        for decl in self.interactions:
            if decl.name == name:
                return decl
        return None


@dataclass(frozen=True)
class Instance:
    name: str
    aet: str
    args: tuple[Expr, ...]
    loc: Loc = field(default_factory=Loc, compare=False)


@dataclass(frozen=True)
class Attachment:
    from_aei: str
    from_interaction: str
    to_aei: str
    to_interaction: str
    loc: Loc = field(default_factory=Loc, compare=False)

    @property
    def source(self) -> tuple[str, str]:
        return (self.from_aei, self.from_interaction)

    @property
    def target(self) -> tuple[str, str]:
        return (self.to_aei, self.to_interaction)


@dataclass(frozen=True)
class ArchiDescription:
    name: str
    params: tuple[Param, ...]
    aets: tuple[AetDef, ...]
    instances: tuple[Instance, ...]
    archi_interactions: tuple[tuple[str, str], ...]
    attachments: tuple[Attachment, ...]
    loc: Loc = field(default_factory=Loc, compare=False)

    def aet(self, name: str) -> AetDef | None:
        for a in self.aets:
            if a.name == name:
                return a
        return None
