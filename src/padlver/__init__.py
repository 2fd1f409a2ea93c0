"""padlver: a verifier for PADL architectural descriptions.

Parses architectural types written in PADL (with synchronous,
semi-synchronous, and asynchronous interaction qualifiers), builds
their labeled-transition-system semantics, and checks deadlock freedom
compositionally through architectural compatibility and
interoperability, with a direct whole-system model check available as
cross-validation.
"""

from .diagnostics import Diagnostic, PadlError, SemanticsError, StateLimitExceeded
from .elaborate import (
    ElabArchitecture,
    aei_semantics,
    build_name_sets,
    composite_semantics,
    elaborate,
    or_rewrite,
)
from .equivalence import (
    EquivalenceVerdict,
    eval_formula,
    saturate,
    strong_bisim_check,
    weak_bisim_check,
)
from .lts import (
    Lts,
    build_lts,
    find_deadlocks,
    hide,
    parallel,
    read_aut,
    relabel,
    resolve,
    write_aut,
)
from .parser import parse
from .pretty import pretty_print
from .topology import (
    build_flow_graph,
    check_behavioral_conformity,
    check_compatibility,
    check_interoperability,
    decompose,
    to_dot,
    verify_deadlock_by_reduction,
    verify_deadlock_direct,
)
from .validate import ValidatedArchitecture, validate

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "ElabArchitecture",
    "EquivalenceVerdict",
    "Lts",
    "PadlError",
    "SemanticsError",
    "StateLimitExceeded",
    "ValidatedArchitecture",
    "aei_semantics",
    "build_flow_graph",
    "build_lts",
    "build_name_sets",
    "check_behavioral_conformity",
    "check_compatibility",
    "check_interoperability",
    "composite_semantics",
    "decompose",
    "elaborate",
    "eval_formula",
    "find_deadlocks",
    "hide",
    "or_rewrite",
    "parallel",
    "parse",
    "pretty_print",
    "read_aut",
    "relabel",
    "resolve",
    "saturate",
    "strong_bisim_check",
    "to_dot",
    "validate",
    "verify_deadlock_by_reduction",
    "verify_deadlock_direct",
    "weak_bisim_check",
    "write_aut",
    "__version__",
]
