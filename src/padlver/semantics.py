"""State-space generation for behavior equations.

A state is a position in some equation body together with the values of
the variables that are still live there (equation parameters and
success flags of previously executed semi-synchronous actions).
Restricting environments to live variables keeps the space canonical:
two positions that cannot be told apart by any future guard collapse
into one state.

Exploration is breadth-first, which fixes the state numbering, and
bounded by a configurable state limit.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping, Sequence

from . import model as m
from .diagnostics import SemanticsError
from .lts import DEFAULT_STATE_LIMIT, Lts, LtsBuilder, exception_label

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
        self.node_id: dict[int, int] = {}
        self.live: dict[int, frozenset[str]] = {}
        counter = 0
        for eq in equations:
            counter = self._number(eq.body, counter)
        for eq in equations:
            self._liveness(eq.body)

    def _number(self, body: m.ProcessBody, counter: int) -> int:
        self.node_id[id(body)] = counter
        counter += 1
        if isinstance(body, m.Prefix):
            counter = self._number(body.cont, counter)
        elif isinstance(body, m.Choice):
            for branch in body.branches:
                counter = self._number(branch.body, counter)
        return counter

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

    def resolve(body: m.ProcessBody, env: dict[str, Value]) -> tuple[m.ProcessBody, Env]:
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
        return body, frozen

    builder = LtsBuilder(state_limit)
    node_of: dict[int, tuple[m.ProcessBody, Env]] = {}
    queue: deque[int] = deque()

    def intern(body: m.ProcessBody, env_items: Env) -> int:
        key = (program.node_id[id(body)], env_items)
        idx, new = builder.state(key)
        if new:
            node_of[idx] = (body, env_items)
            if mark_when is not None and mark_when(dict(env_items)):
                builder.mark(idx)
            queue.append(idx)
        return idx

    init = intern(*resolve(first.body, bind(first, args)))

    def emit(src: int, body: m.ProcessBody, env: dict[str, Value]) -> None:
        if isinstance(body, m.Stop):
            return
        if isinstance(body, m.Prefix):
            label = dotted(body.action)
            if body.action in ssync:
                skey = _success_key(body.action)
                ok_env = dict(env)
                ok_env[skey] = True
                exc_env = dict(env)
                exc_env[skey] = False
                ok = intern(*resolve(body.cont, ok_env))
                exc = intern(*resolve(body.cont, exc_env))
                builder.add_semisync(src, label, ok, exception_label(label), exc)
            else:
                builder.add(src, label, intern(*resolve(body.cont, dict(env))))
            return
        if isinstance(body, m.Choice):
            for branch in body.branches:
                if branch.guard is not None and not eval_expr(branch.guard, env):
                    continue
                emit(src, branch.body, env)
            return
        raise SemanticsError(f"unexpected body node {body!r}")  # pragma: no cover

    while queue:
        src = queue.popleft()
        body, env_items = node_of[src]
        emit(src, body, dict(env_items))

    return builder.finish(init)
