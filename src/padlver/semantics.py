"""State-space generation for behavior equations.

A state is a position in some equation body together with the values of
the variables that are still live there (equation parameters and
success flags of previously executed semi-synchronous actions).
Restricting environments to live variables keeps the space canonical:
two positions that cannot be told apart by any future guard collapse
into one state.

Exploration is breadth-first, which fixes the state numbering, and
bounded by a configurable state limit.  A state's key is its node's
number and its live environment; the state table that parallel
composition uses too (lts._States) numbers the keys, and its list of
keys in discovery order is the BFS queue.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from . import model as m
from .diagnostics import SemanticsError
from .lts import DEFAULT_STATE_LIMIT, TAU, Lts, _canonical, _States, exception_label

Value = bool | int
Env = tuple[tuple[str, Value], ...]


def _success_key(action: str) -> str:
    return f"{action}.success"


def eval_expr(expr: m.Expr, env: dict[str, Value]) -> Value:
    if isinstance(expr, m.BoolLit):
        return expr.value
    if isinstance(expr, m.IntLit):
        return expr.value
    if isinstance(expr, m.Var):
        try:
            return env[expr.name]
        except KeyError:
            raise SemanticsError(f"unbound name '{expr.name}'") from None
    if isinstance(expr, m.SuccessVar):
        try:
            return env[_success_key(expr.action)]
        except KeyError:
            raise SemanticsError(
                f"'{expr.action}.success' read before '{expr.action}' was executed"
            ) from None
    if isinstance(expr, m.Unary):
        return m.UNARY_OPS[expr.op].apply(eval_expr(expr.operand, env))
    if isinstance(expr, m.Binary):
        left = eval_expr(expr.left, env)
        return m.BINARY_OPS[expr.op].apply(left, eval_expr(expr.right, env))
    raise SemanticsError(f"cannot evaluate {expr!r}")


def _expr_vars(expr: m.Expr, acc: set[str]) -> None:
    if isinstance(expr, m.Var):
        acc.add(expr.name)
    elif isinstance(expr, m.SuccessVar):
        acc.add(_success_key(expr.action))
    elif isinstance(expr, m.Unary):
        _expr_vars(expr.operand, acc)
    elif isinstance(expr, m.Binary):
        _expr_vars(expr.left, acc)
        _expr_vars(expr.right, acc)


class _Program:
    """Equations prepared for exploration: node numbering and per-node
    live-variable sets."""

    def __init__(self, equations: Sequence[m.BehaviorEquation]):
        self.equations = {eq.name: eq for eq in equations}
        if len(self.equations) != len(equations):
            raise SemanticsError("duplicate equation names")
        self.nodes: list[m.ProcessBody] = []  # nodes[i]: the body numbered i
        self.node_id: dict[int, int] = {}
        self.live: dict[int, frozenset[str]] = {}
        for eq in equations:
            self._number(eq.body)
        for eq in equations:
            self._liveness(eq.body)

    def _number(self, body: m.ProcessBody) -> None:
        self.node_id[id(body)] = len(self.nodes)
        self.nodes.append(body)
        if isinstance(body, m.Prefix):
            self._number(body.cont)
        elif isinstance(body, m.Choice):
            for branch in body.branches:
                self._number(branch.body)

    def _liveness(self, body: m.ProcessBody) -> frozenset[str]:
        key = id(body)
        cached = self.live.get(key)
        if cached is not None:
            return cached
        if isinstance(body, m.Stop):
            live: frozenset[str] = frozenset()
        elif isinstance(body, m.Invoke):
            acc: set[str] = set()
            for arg in body.args:
                _expr_vars(arg, acc)
            live = frozenset(acc)
        elif isinstance(body, m.Prefix):
            live = self._liveness(body.cont) - {_success_key(body.action)}
        elif isinstance(body, m.Choice):
            acc = set()
            for branch in body.branches:
                if branch.guard is not None:
                    _expr_vars(branch.guard, acc)
                acc |= self._liveness(branch.body)
            live = frozenset(acc)
        else:  # pragma: no cover - parser forbids other node kinds here
            raise SemanticsError(f"unexpected body node {body!r}")
        self.live[key] = live
        return live


def generate_lts(
    equations: Sequence[m.BehaviorEquation],
    actuals: Mapping[str, Value],
    *,
    prefix: str | None = None,
    ssync_actions: frozenset[str] | set[str] = frozenset(),
    state_limit: int = DEFAULT_STATE_LIMIT,
    mark_when: Callable[[dict[str, Value]], bool] | None = None,
) -> Lts:
    """Exhaustive reachability from the first equation's default invocation.

    actuals binds the element type's parameters (empty for a queue or
    hand-built equations) under every equation's own parameters, which
    shadow them; the first equation's defaults are evaluated with them.

    Action names become dotted labels "<prefix>.<action>" when a prefix
    is given.  Each action in ssync_actions yields a semi-synchronous
    transition whose success continuation binds the action's success
    variable to true and whose exception continuation binds it to
    false.  Choice branches with false guards contribute nothing.
    Invocations unfold silently; unguarded invocation cycles are
    rejected.
    """
    if not equations:
        raise SemanticsError("no equations given")
    program = _Program(equations)
    first = equations[0]
    args: list[Value] = []
    for p in first.params:
        if p.default is None:
            raise SemanticsError(
                f"initial equation '{first.name}' parameter '{p.name}' has no default"
            )
        args.append(eval_expr(p.default, dict(actuals)))

    ssync = frozenset(ssync_actions)

    def dotted(action: str) -> str:
        return f"{prefix}.{action}" if prefix else action

    def bind(eq: m.BehaviorEquation, values: Sequence[Value]) -> dict[str, Value]:
        if len(values) != len(eq.params):
            raise SemanticsError(
                f"'{eq.name}' expects {len(eq.params)} arguments, got {len(values)}"
            )
        env = dict(actuals)
        for p, v in zip(eq.params, values):
            if isinstance(p.type, m.IntType):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise SemanticsError(f"parameter '{p.name}' of '{eq.name}' needs an integer")
                if not p.type.lo <= v <= p.type.hi:
                    raise SemanticsError(
                        f"value {v} for '{p.name}' of '{eq.name}' is outside "
                        f"{p.type.render()}"
                    )
            elif not isinstance(v, bool):
                raise SemanticsError(f"parameter '{p.name}' of '{eq.name}' needs a boolean")
            env[p.name] = v
        return env

    def resolve(body: m.ProcessBody, env: dict[str, Value]) -> tuple[int, Env]:
        """The state key of body under env: its node and live environment."""
        trail: set[tuple[int, Env]] = set()
        while isinstance(body, m.Invoke):
            snapshot = (program.node_id[id(body)], tuple(sorted(env.items())))
            if snapshot in trail:
                raise SemanticsError(
                    f"unguarded recursion through equation '{body.equation}'"
                )
            trail.add(snapshot)
            target = program.equations.get(body.equation)
            if target is None:
                raise SemanticsError(f"invocation of unknown equation '{body.equation}'")
            values = [eval_expr(arg, env) for arg in body.args]
            env = bind(target, values)
            body = target.body
        live = program.live[id(body)]
        frozen = tuple(sorted((k, v) for k, v in env.items() if k in live))
        return program.node_id[id(body)], frozen

    seen = _States(state_limit)
    rows = seen.rows
    label_index = {TAU: 0}  # label -> its index; its keys are the label table

    def label(name: str) -> int:
        return label_index.setdefault(name, len(label_index))

    init = seen[resolve(first.body, bind(first, args))]

    def emit(src: int, body: m.ProcessBody, env: dict[str, Value]) -> None:
        if isinstance(body, m.Stop):
            return
        if isinstance(body, m.Prefix):
            name = dotted(body.action)
            if body.action in ssync:
                skey = _success_key(body.action)
                ok_env = dict(env)
                ok_env[skey] = True
                exc_env = dict(env)
                exc_env[skey] = False
                ok = seen[resolve(body.cont, ok_env)]
                exc = seen[resolve(body.cont, exc_env)]
                rows[src].append((label(name), ok, label(exception_label(name)), exc))
            else:
                rows[src].append((label(name), seen[resolve(body.cont, dict(env))], -1, -1))
            return
        if isinstance(body, m.Choice):
            for branch in body.branches:
                if branch.guard is not None and not eval_expr(branch.guard, env):
                    continue
                emit(src, branch.body, env)
            return
        raise SemanticsError(f"unexpected body node {body!r}")  # pragma: no cover

    try:  # emit holds its own cell: clearing it breaks the cycle
        for src, (node, env_items) in enumerate(seen.order):  # the BFS queue
            emit(src, program.nodes[node], dict(env_items))
    finally:
        del emit

    marked = set()
    if mark_when is not None:
        marked = {s for s, (_, env_items) in enumerate(seen.order) if mark_when(dict(env_items))}
    return _canonical(list(label_index), rows, init, marked)
