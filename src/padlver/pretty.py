"""Canonical PADL text emitter.

The output re-parses to a structurally equal description.  Layout is
normalized: one instance/attachment per line, interaction groups merged
by (synchronicity, multiplicity), the default SYNC qualifier spelled
out explicitly.
"""

from __future__ import annotations

from . import model as m


def pretty_print(description: m.ArchiDescription) -> str:
    out: list[str] = []
    out.append(f"ARCHI_TYPE {description.name}({_params(description.params)})")
    out.append("")
    out.append("  ARCHI_BEHAVIOR")
    for aet in description.aets:
        out.append("")
        out.append(f"    ARCHI_ELEM_TYPE {aet.name}({_params(aet.params)})")
        out.append("      BEHAVIOR")
        for idx, eq in enumerate(aet.equations):
            sep = ";" if idx < len(aet.equations) - 1 else ""
            out.append(f"        {eq.name}({_params(eq.params)}; void) =")
            out.extend(_body_lines(eq.body, indent=10))
            out[-1] += sep
        out.append("      INPUT_INTERACTIONS  " + _interactions(aet, m.Direction.INPUT))
        out.append("      OUTPUT_INTERACTIONS " + _interactions(aet, m.Direction.OUTPUT))
    out.append("")
    out.append("  ARCHI_TOPOLOGY")
    out.append("    ARCHI_ELEM_INSTANCES")
    for idx, inst in enumerate(description.instances):
        sep = ";" if idx < len(description.instances) - 1 else ""
        args = ", ".join(render_expr(a) for a in inst.args)
        out.append(f"      {inst.name} : {inst.aet}({args}){sep}")
    out.append("    ARCHI_INTERACTIONS")
    if description.archi_interactions:
        for idx, (aei, inter) in enumerate(description.archi_interactions):
            sep = ";" if idx < len(description.archi_interactions) - 1 else ""
            out.append(f"      {aei}.{inter}{sep}")
    else:
        out.append("      void")
    out.append("    ARCHI_ATTACHMENTS")
    if description.attachments:
        for idx, att in enumerate(description.attachments):
            sep = ";" if idx < len(description.attachments) - 1 else ""
            out.append(
                f"      FROM {att.from_aei}.{att.from_interaction} "
                f"TO {att.to_aei}.{att.to_interaction}{sep}"
            )
    else:
        out.append("      void")
    out.append("")
    out.append("END")
    return "\n".join(out) + "\n"


def _params(params: tuple[m.Param, ...]) -> str:
    if not params:
        return "void"
    rendered = []
    for p in params:
        text = f"{p.type.render()} {p.name}"
        if p.default is not None:
            text += f" := {render_expr(p.default)}"
        rendered.append(text)
    return ", ".join(rendered)


def _interactions(aet: m.AetDef, direction: m.Direction) -> str:
    decls = [d for d in aet.interactions if d.direction is direction]
    if not decls:
        return "void"
    pieces: list[str] = []
    current: tuple[m.Synchronicity, m.Multiplicity] | None = None
    for decl in decls:
        quals = (decl.synchronicity, decl.multiplicity)
        name = decl.name
        if decl.dep_on is not None:
            name += f" DEP {decl.dep_on}"
        if quals != current:
            pieces.append(f"{decl.synchronicity.value} {decl.multiplicity.value} {name}")
            current = quals
        else:
            pieces.append(name)
    return "; ".join(pieces)


def _body_lines(body: m.ProcessBody, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(body, m.Choice):
        lines = [pad + "choice", pad + "{"]
        for idx, branch in enumerate(body.branches):
            sub = _body_lines(branch.body, indent + 2)
            if branch.guard is not None:
                sub[0] = f"{pad}  cond({render_expr(branch.guard)}) -> " + sub[0].lstrip()
            if idx < len(body.branches) - 1:
                sub[-1] += ","
            lines.extend(sub)
        lines.append(pad + "}")
        return lines
    return [pad + _inline_body(body)]


def _inline_body(body: m.ProcessBody) -> str:
    if isinstance(body, m.Stop):
        return "stop"
    if isinstance(body, m.Invoke):
        return f"{body.equation}({', '.join(render_expr(a) for a in body.args)})"
    if isinstance(body, m.Prefix):
        return f"{body.action} . {_inline_body(body.cont)}"
    if isinstance(body, m.Choice):
        # A nested choice inside a prefix chain is rare; keep it on one line.
        branches = []
        for branch in body.branches:
            text = _inline_body(branch.body)
            if branch.guard is not None:
                text = f"cond({render_expr(branch.guard)}) -> {text}"
            branches.append(text)
        return "choice { " + ", ".join(branches) + " }"
    raise TypeError(f"unexpected body node {body!r}")


def render_expr(expr: m.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, m.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, m.IntLit):
        return str(expr.value)
    if isinstance(expr, m.Var):
        return expr.name
    if isinstance(expr, m.SuccessVar):
        return f"{expr.action}.success"
    if isinstance(expr, m.Unary):
        op = m.UNARY_OPS[expr.op]
        space = " " if expr.op.isalpha() else ""
        text = f"{expr.op}{space}{render_expr(expr.operand, op.level)}"
    elif isinstance(expr, m.Binary):
        op = m.BINARY_OPS[expr.op]
        # a comparison does not chain, so one on its left needs parentheses
        left = render_expr(expr.left, op.level if op.chains else op.level + 1)
        text = f"{left} {expr.op} {render_expr(expr.right, op.level + 1)}"
    else:
        raise TypeError(f"unexpected expression {expr!r}")
    return f"({text})" if op.level < parent_prec else text
