"""Static validation of parsed architectural descriptions.

Checks admissibility of the topology (attachments go from a local
output interaction to a local input interaction of another AEI, a
uni-interaction is attached at most once, and-/or-interactions attach
only to uni-interactions), DEP well-formedness, type correctness of
guards and invocations, parameter defaults and actual parameters
against their declared types, and scoping of names and ``x.success``
reads.

All violations are collected before reporting, so a single run surfaces
every problem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import model as m
from .diagnostics import Diagnostic, Loc, PadlError, SemanticsError, Severity
from .lts import EXCEPTION_SUFFIX
from .semantics import Value, eval_expr

_RESERVED_INSTANCE = re.compile(r"^(IAQ|OAQ)_\d+$")
RESERVED_QUEUE_AET = "Async_Queue_Type"


@dataclass
class ValidatedArchitecture:
    """A parsed description together with what validate() hands over
    to elaboration: the warnings, each AEI's actual parameters as
    values (``actuals[aei][param]``, evaluated with the architectural
    defaults and checked against the AET's declared types, which
    generate_lts binds without evaluating again), and the lookup
    tables validate() builds as it checks: AETs and AEIs by name and
    each endpoint's attachments.  Construction goes through
    validate()."""

    description: m.ArchiDescription
    warnings: list[Diagnostic]
    actuals: dict[str, dict[str, Value]]
    aets: dict[str, m.AetDef]
    instances: dict[str, m.Instance]
    attachments_of: dict[tuple[str, str], list[m.Attachment]]  # by endpoint, in order

    def aet_of(self, aei: str) -> m.AetDef:
        return self.aets[self.instances[aei].aet]


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------

_TYPE_WORDS = {"bool": "boolean", "int": "integer"}


class _Checker:
    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def error(self, code: str, message: str, loc: Loc) -> None:
        self.diags.append(Diagnostic(Severity.ERROR, code, message, loc))

    def warn(self, code: str, message: str, loc: Loc) -> None:
        self.diags.append(Diagnostic(Severity.WARNING, code, message, loc))

    def type_of(self, expr: m.Expr, env: dict[str, m.DataType], ssync: set[str]) -> str | None:
        """Returns 'bool', 'int', or None after reporting a diagnostic."""
        if isinstance(expr, m.BoolLit):
            return "bool"
        if isinstance(expr, m.IntLit):
            return "int"
        if isinstance(expr, m.Var):
            if expr.name not in env:
                self.error("E_SCOPE", f"name '{expr.name}' is not in scope", expr.loc)
                return None
            return "bool" if isinstance(env[expr.name], m.BoolType) else "int"
        if isinstance(expr, m.SuccessVar):
            if expr.action not in ssync:
                self.error(
                    "E_SUCCESS_NOT_SSYNC",
                    f"'{expr.action}.success' is only available for semi-synchronous interactions",
                    expr.loc,
                )
            return "bool"
        if isinstance(expr, m.Unary):
            inner = self.type_of(expr.operand, env, ssync)
            want = m.UNARY_OPS[expr.op].operand
            if inner is not None and inner != want:
                self.error("E_TYPE", f"operator '{expr.op}' expects a {want} operand", expr.loc)
            return want
        if isinstance(expr, m.Binary):
            op = m.BINARY_OPS[expr.op]
            lt = self.type_of(expr.left, env, ssync)
            rt = self.type_of(expr.right, env, ssync)
            if op.operand is None:
                if lt is not None and rt is not None and lt != rt:
                    self.error("E_TYPE", f"comparison '{expr.op}' mixes {lt} and {rt}", expr.loc)
            else:
                for t in (lt, rt):
                    if t is not None and t != op.operand:
                        self.error("E_TYPE", f"operator '{expr.op}' expects {_TYPE_WORDS[op.operand]} "
                                   "operands", expr.loc)
            return op.result
        return None

    def constant(self, expr: m.Expr, env: dict[str, Value], declared: m.DataType, loc: Loc,
                 subject: str, unevaluable: str) -> tuple[Value | None, bool]:
        """Evaluate a constant in `env` and check it against its declared
        type.  Returns the value (None when it cannot be evaluated) and
        whether it fits, after reporting E_CONST (`unevaluable`: the
        reason) or E_TYPE or E_RANGE (naming `subject`)."""
        try:
            value = eval_expr(expr, env)
        except SemanticsError as exc:
            self.error("E_CONST", f"{unevaluable}: {exc}", loc)
            return None, False
        if isinstance(declared, m.BoolType) != isinstance(value, bool):
            self.error("E_TYPE", f"{subject} has the wrong type", loc)
            return value, False
        if isinstance(declared, m.IntType) and not declared.lo <= value <= declared.hi:
            self.error("E_RANGE", f"{subject} is outside {declared.render()}", loc)
            return value, False
        return value, True


def validate(description: m.ArchiDescription) -> ValidatedArchitecture:
    """Validate a parsed description.

    Returns a ValidatedArchitecture (possibly with warnings) or raises
    PadlError carrying every diagnostic found.
    """
    ck = _Checker()
    d = description

    # Architectural-type parameters form the constant environment of
    # later architectural defaults and of the AEIs' actual parameters;
    # the behavior equations do not see them.
    at_env: dict[str, Value] = {}
    at_names: set[str] = set()
    for p in d.params:
        if p.name in at_names:
            ck.error("E_DUP_PARAM", f"duplicate architectural parameter '{p.name}'", p.loc)
        at_names.add(p.name)
        if p.default is not None:
            # A default that does not fit stays bound, so that what reads
            # it is checked with the value it would have.
            value, _ = ck.constant(p.default, at_env, p.type, p.loc, f"default of '{p.name}'",
                                   f"cannot evaluate default of '{p.name}'")
            if value is not None:
                at_env[p.name] = value

    aets: dict[str, m.AetDef] = {}
    defaults: dict[str, list[tuple[m.Param, tuple[str, ...]]]] = {}
    for aet in d.aets:
        if aet.name in aets:
            ck.error("E_DUP_AET", f"duplicate AET '{aet.name}'", aet.loc)
        aets[aet.name] = aet
        if aet.name == RESERVED_QUEUE_AET:
            ck.error("E_RESERVED_NAME", f"AET name '{RESERVED_QUEUE_AET}' is reserved", aet.loc)
        defaults[aet.name] = _validate_aet(ck, aet)

    instances: dict[str, m.Instance] = {}
    aei_actuals: dict[str, dict[str, Value]] = {}
    for inst in d.instances:
        if inst.name in instances:
            ck.error("E_DUP_INSTANCE", f"duplicate AEI '{inst.name}'", inst.loc)
        instances[inst.name] = inst
        if _RESERVED_INSTANCE.match(inst.name):
            ck.error("E_RESERVED_NAME", f"AEI name '{inst.name}' is reserved for implicit queues", inst.loc)
        aet = aets.get(inst.aet)
        if aet is None:
            ck.error("E_UNDEF_AET", f"AEI '{inst.name}' references unknown AET '{inst.aet}'", inst.loc)
            continue
        if len(inst.args) != len(aet.params):
            ck.error(
                "E_ARITY",
                f"AEI '{inst.name}' passes {len(inst.args)} parameters, "
                f"AET '{aet.name}' declares {len(aet.params)}",
                inst.loc,
            )
            continue
        checked = {
            formal.name: ck.constant(arg, at_env, formal.type, inst.loc,
                                     f"parameter '{formal.name}' of '{inst.name}'",
                                     f"parameter of '{inst.name}'")
            for arg, formal in zip(inst.args, aet.params)
        }
        if not all(fits for _, fits in checked.values()):
            continue
        actuals = aei_actuals[inst.name] = {name: value for name, (value, _) in checked.items()}
        # A default that fails is reported for the first such AEI only.
        kept = []
        for p, scope in defaults[aet.name]:
            env = {name: actuals[name] for name in scope}
            if ck.constant(p.default, env, p.type, p.loc, f"default of '{p.name}'",
                           f"default of '{p.name}'")[1]:
                kept.append((p, scope))
        defaults[aet.name] = kept

    def interaction_of(aei: str, name: str) -> m.InteractionDecl | None:
        inst = instances.get(aei)
        if inst is None:
            return None
        aet = aets.get(inst.aet)
        return aet.interaction(name) if aet else None

    # Attachments: direction, distinct endpoints, multiplicity discipline.
    seen_pairs: set[tuple[tuple[str, str], tuple[str, str]]] = set()
    attachments_of: dict[tuple[str, str], list[m.Attachment]] = {}
    for att in d.attachments:
        ok = True
        for aei, inter in (att.source, att.target):
            if aei not in instances:
                ck.error("E_ATTACH_UNDEF", f"attachment references unknown AEI '{aei}'", att.loc)
                ok = False
            elif interaction_of(aei, inter) is None:
                ck.error("E_ATTACH_UNDEF", f"'{aei}' has no interaction '{inter}'", att.loc)
                ok = False
        if not ok:
            continue
        src = interaction_of(*att.source)
        dst = interaction_of(*att.target)
        if src.direction is not m.Direction.OUTPUT or dst.direction is not m.Direction.INPUT:
            ck.error(
                "E_ATTACH_DIR",
                "an attachment is admissible only from a local output interaction "
                "to a local input interaction",
                att.loc,
            )
        if att.from_aei == att.to_aei:
            ck.error("E_ATTACH_SELF", "an attachment must connect two distinct AEIs", att.loc)
        if src.multiplicity is not m.Multiplicity.UNI and dst.multiplicity is not m.Multiplicity.UNI:
            ck.error(
                "E_MULTI_TO_MULTI",
                "an and-/or-interaction can be attached to uni-interactions only",
                att.loc,
            )
        key = (att.source, att.target)
        if key in seen_pairs:
            ck.error("E_DUP_ATTACH", f"duplicate attachment {att.from_aei}.{att.from_interaction} "
                     f"-> {att.to_aei}.{att.to_interaction}", att.loc)
        seen_pairs.add(key)
        attachments_of.setdefault(att.source, []).append(att)
        attachments_of.setdefault(att.target, []).append(att)

    for endpoint, atts in attachments_of.items():
        decl = interaction_of(*endpoint)
        if decl is None:
            continue
        if decl.multiplicity is m.Multiplicity.UNI and len(atts) > 1:
            ck.error(
                "E_UNI_FANOUT",
                f"uni-interaction {endpoint[0]}.{endpoint[1]} appears in {len(atts)} attachments",
                atts[1].loc,
            )
        if decl.multiplicity is m.Multiplicity.AND:
            partners = [a.to_aei if a.source == endpoint else a.from_aei for a in atts]
            if len(partners) != len(set(partners)):
                ck.error(
                    "E_AND_SAME_AEI",
                    f"and-interaction {endpoint[0]}.{endpoint[1]} is attached to the same AEI "
                    "more than once, which has no joint-synchronization reading",
                    atts[0].loc,
                )

    # DEP pairs need equal attachment counts and unambiguous partner pairing.
    for inst in d.instances:
        aet = aets.get(inst.aet)
        if aet is None:
            continue
        for decl in aet.interactions:
            if decl.dep_on is None:
                continue
            i_ep = (inst.name, decl.dep_on)
            o_ep = (inst.name, decl.name)
            i_atts = attachments_of.get(i_ep, [])
            o_atts = attachments_of.get(o_ep, [])
            if len(i_atts) != len(o_atts):
                ck.error(
                    "E_DEP_COUNT",
                    f"DEP pair {inst.name}.{decl.name}/{decl.dep_on} has "
                    f"{len(o_atts)} vs {len(i_atts)} attachments",
                    decl.loc,
                )
                continue
            i_partners = [a.from_aei for a in i_atts]
            o_partners = [a.to_aei for a in o_atts]
            if sorted(i_partners) != sorted(o_partners) or len(set(i_partners)) != len(i_partners):
                ck.error(
                    "E_DEP_PARTNERS",
                    f"DEP pair {inst.name}.{decl.name}/{decl.dep_on} must be attached, "
                    "once each, to the same partner AEIs",
                    decl.loc,
                )

    # Architectural interactions: declared endpoints, disjoint from attached ones.
    for aei, inter in d.archi_interactions:
        if aei not in instances or interaction_of(aei, inter) is None:
            ck.error("E_ARCHI_UNDEF", f"architectural interaction {aei}.{inter} is not declared", d.loc)
        elif (aei, inter) in attachments_of:
            ck.error(
                "E_ARCHI_ATTACHED",
                f"architectural interaction {aei}.{inter} also occurs in an attachment",
                d.loc,
            )

    archi = set(d.archi_interactions)
    for inst in d.instances:
        aet = aets.get(inst.aet)
        if aet is None:
            continue
        for decl in aet.interactions:
            ep = (inst.name, decl.name)
            if ep not in attachments_of and ep not in archi:
                ck.warn(
                    "W_UNATTACHED",
                    f"local interaction {inst.name}.{decl.name} is neither attached "
                    "nor architectural; it will act as a free local action",
                    decl.loc,
                )

    errors = [x for x in ck.diags if x.severity is Severity.ERROR]
    if errors:
        raise PadlError(ck.diags)
    return ValidatedArchitecture(description=d, warnings=ck.diags, actuals=aei_actuals,
                                 aets=aets, instances=instances, attachments_of=attachments_of)


def _validate_aet(ck: _Checker, aet: m.AetDef) -> list[tuple[m.Param, tuple[str, ...]]]:
    """Check one AET on its own.  Its equations see the AET's parameters
    and their own.  Returns each equation parameter whose default
    type-checks, with the AET parameters the default may read, to be
    range-checked with every AEI's actual parameters."""
    inter_by_name: dict[str, m.InteractionDecl] = {}
    for decl in aet.interactions:
        if decl.name in inter_by_name:
            ck.error("E_DUP_INTERACTION", f"duplicate interaction '{decl.name}' in AET '{aet.name}'", decl.loc)
        inter_by_name[decl.name] = decl
        if decl.name.endswith(EXCEPTION_SUFFIX):
            ck.error(
                "E_RESERVED_NAME",
                f"interaction name '{decl.name}' uses the reserved '{EXCEPTION_SUFFIX}' suffix",
                decl.loc,
            )

    for decl in aet.interactions:
        if decl.dep_on is None:
            continue
        if decl.direction is not m.Direction.OUTPUT or decl.multiplicity is not m.Multiplicity.OR:
            ck.error("E_DEP_KIND", f"DEP is only allowed on output or-interactions ('{decl.name}')", decl.loc)
            continue
        target = inter_by_name.get(decl.dep_on)
        if target is None or target.direction is not m.Direction.INPUT \
                or target.multiplicity is not m.Multiplicity.OR:
            ck.error(
                "E_DEP_KIND",
                f"'{decl.name}' must DEP-depend on an input or-interaction of the same AET",
                decl.loc,
            )

    equations: dict[str, m.BehaviorEquation] = {}
    for eq in aet.equations:
        if eq.name in equations:
            ck.error("E_DUP_EQUATION", f"duplicate equation '{eq.name}' in AET '{aet.name}'", eq.loc)
        equations[eq.name] = eq

    first = aet.equations[0]
    for p in first.params:
        if p.default is None:
            ck.error(
                "E_INIT_DEFAULT",
                f"parameter '{p.name}' of the initial equation '{first.name}' needs a default",
                p.loc,
            )

    ssync_names = {
        decl.name
        for decl in aet.interactions
        if decl.synchronicity is m.Synchronicity.SSYNC
    }

    aet_types = {p.name: p.type for p in aet.params}
    defaults: list[tuple[m.Param, tuple[str, ...]]] = []
    used_actions: set[str] = set()
    for eq in aet.equations:
        # A default sees the AET's parameters that the equation's own
        # do not shadow; generate_lts evaluates it with the actuals.
        own = {p.name for p in eq.params}
        outer = {k: t for k, t in aet_types.items() if k not in own}
        env: dict[str, m.DataType] = dict(aet_types)
        seen_params: set[str] = set()
        for p in eq.params:
            if p.name in seen_params:
                ck.error("E_DUP_PARAM", f"duplicate parameter '{p.name}' in '{eq.name}'", p.loc)
            seen_params.add(p.name)
            env[p.name] = p.type
            if p.default is not None:
                reported = len(ck.diags)
                _check_success_reads(ck, p.default, frozenset())
                t = ck.type_of(p.default, outer, ssync_names)
                if t is not None and (t == "bool") != isinstance(p.type, m.BoolType):
                    ck.error("E_TYPE", f"default of '{p.name}' has the wrong type", p.loc)
                if len(ck.diags) == reported:
                    defaults.append((p, tuple(outer)))
        _validate_body(ck, aet, eq.body, env, ssync_names, frozenset(), equations, used_actions)

    for decl in aet.interactions:
        if decl.name not in used_actions:
            ck.error(
                "E_UNUSED_INTERACTION",
                f"interaction '{decl.name}' never occurs in the behavior of AET '{aet.name}'",
                decl.loc,
            )
    return defaults


def _validate_body(
    ck: _Checker,
    aet: m.AetDef,
    body: m.ProcessBody,
    env: dict[str, m.DataType],
    ssync_names: set[str],
    have_success: frozenset[str],
    equations: dict[str, m.BehaviorEquation],
    used_actions: set[str],
) -> None:
    if isinstance(body, m.Stop):
        return
    if isinstance(body, m.Invoke):
        target = equations.get(body.equation)
        if target is None:
            ck.error("E_UNDEF_EQUATION", f"invocation of unknown equation '{body.equation}'", body.loc)
            return
        if len(body.args) != len(target.params):
            ck.error(
                "E_ARITY",
                f"'{body.equation}' expects {len(target.params)} arguments, got {len(body.args)}",
                body.loc,
            )
        for arg, formal in zip(body.args, target.params):
            _check_success_reads(ck, arg, have_success)
            t = ck.type_of(arg, env, ssync_names)
            want = "bool" if isinstance(formal.type, m.BoolType) else "int"
            if t is not None and t != want:
                ck.error("E_TYPE", f"argument for '{formal.name}' of '{body.equation}' must be {want}", body.loc)
        return
    if isinstance(body, m.Prefix):
        used_actions.add(body.action)
        nxt = have_success | {body.action} if body.action in ssync_names else have_success
        _validate_body(ck, aet, body.cont, env, ssync_names, nxt, equations, used_actions)
        return
    if isinstance(body, m.Choice):
        for branch in body.branches:
            if branch.guard is not None:
                _check_success_reads(ck, branch.guard, have_success)
                t = ck.type_of(branch.guard, env, ssync_names)
                if t is not None and t != "bool":
                    ck.error("E_TYPE", "guards must be boolean", branch.loc)
            _validate_body(ck, aet, branch.body, env, ssync_names, have_success, equations, used_actions)
        return


def _check_success_reads(ck: _Checker, expr: m.Expr, have: frozenset[str]) -> None:
    if isinstance(expr, m.SuccessVar):
        if expr.action not in have:
            ck.error(
                "E_SUCCESS_UNSET",
                f"'{expr.action}.success' is read before '{expr.action}' is executed "
                "on this path",
                expr.loc,
            )
    elif isinstance(expr, m.Unary):
        _check_success_reads(ck, expr.operand, have)
    elif isinstance(expr, m.Binary):
        _check_success_reads(ck, expr.left, have)
        _check_success_reads(ck, expr.right, have)
