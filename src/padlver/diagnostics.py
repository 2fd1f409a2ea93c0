"""Diagnostics shared by the frontend and the downstream pipeline.

Every problem detected in a PADL description is reported as a Diagnostic
with a stable error code, so that tests and tools can match on codes
instead of message text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Loc:
    """Source position, 1-based; (0, 0) means "unknown"."""

    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    loc: Loc = field(default_factory=Loc)

    def render(self, filename: str = "<input>") -> str:
        return (
            f"{filename}:{self.loc.line}:{self.loc.column}: "
            f"{self.severity.value}[{self.code}]: {self.message}"
        )


class PadlError(Exception):
    """Raised when parsing or validation fails; carries the full batch
    of diagnostics collected before giving up."""

    def __init__(self, diagnostics: list[Diagnostic], filename: str = "<input>"):
        super().__init__(diagnostics)
        self.diagnostics = list(diagnostics)
        self.filename = filename  # may be set later, by whoever knows the file

    def __str__(self) -> str:
        return "\n".join(d.render(self.filename) for d in self.diagnostics)

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]


class StateLimitExceeded(Exception):
    """Raised when state-space construction exceeds the configured bound.

    Carries partial statistics so callers can report how far exploration
    got, and names the bound: a state limit, or the saturation budget of
    weak checks, which counts saturated transitions, or in a weak check
    the signature entries of one refinement round, each standing for
    at least one saturated transition.
    """

    def __init__(self, limit: int, states_seen: int, transitions_seen: int,
                 bound: str = "state limit"):
        self.limit = limit
        self.states_seen = states_seen
        self.transitions_seen = transitions_seen
        super().__init__(
            f"{bound} {limit} exceeded "
            f"({states_seen} states, {transitions_seen} transitions explored)"
        )


class SemanticsError(Exception):
    """A well-formedness problem hit during state-space generation
    (value out of range, unknown equation, unset success variable)."""
