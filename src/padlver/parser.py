"""Lexer and recursive-descent parser for PADL source text.

The accepted notation follows the textual layout of architectural
types: an ARCHI_TYPE header, an ARCHI_BEHAVIOR section made of
ARCHI_ELEM_TYPE blocks (BEHAVIOR equations plus INPUT_INTERACTIONS /
OUTPUT_INTERACTIONS with SYNC/SSYNC/ASYNC, UNI/AND/OR and DEP
qualifiers), an ARCHI_TOPOLOGY section (instances, architectural
interactions, attachments), and a closing END.

One compiled regular expression lexes the source, and one rule,
``listed``, parses the separated lists but for choice branches and
attachments.  Keywords are case-sensitive.  Guards use a small
expression language: boolean and integer literals, parameters,
``x.success`` references, comparisons, + and -, and the boolean
connectives.  One precedence-climbing routine, ``parse_expr``, parses
it from the operator table in ``model`` (loosest first: or, and, not,
the non-chaining comparisons, + and -, unary minus).

Nesting is bounded by MAX_NESTING: deeper input is rejected with a
positioned ``E_DEPTH`` diagnostic instead of exhausting the stack here
or in a later stage.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection
from typing import NamedTuple, TypeVar

from . import model as m
from .diagnostics import Diagnostic, Loc, PadlError, Severity

# Deepest nesting accepted, in Python stack frames: each construct is
# charged what one level of it costs in this parser or in the later
# stages' recursive walkers, whichever is more, so input at this depth
# passes every stage within Python's default recursion limit of 1000,
# with room for the caller's own frames.  An action prefix, 'not',
# unary '-' and a binary operator cost at most one frame per level in
# every walker, this parser included; a choice branch and a parenthesis
# cost the parser more.
MAX_NESTING = 900
BRANCH_LEVELS = 3  # parse_body -> parse_choice -> parse_branch
PAREN_LEVELS = 2  # parse_atom -> parse_expr

T = TypeVar("T")

_SECTION_KEYWORDS = {
    "ARCHI_TYPE",
    "ARCHI_BEHAVIOR",
    "ARCHI_ELEM_TYPE",
    "BEHAVIOR",
    "INPUT_INTERACTIONS",
    "OUTPUT_INTERACTIONS",
    "ARCHI_TOPOLOGY",
    "ARCHI_ELEM_INSTANCES",
    "ARCHI_INTERACTIONS",
    "ARCHI_ATTACHMENTS",
    "END",
}

_KEYWORDS = _SECTION_KEYWORDS | {
    "FROM",
    "TO",
    "SYNC",
    "SSYNC",
    "ASYNC",
    "UNI",
    "AND",
    "OR",
    "DEP",
    "choice",
    "cond",
    "stop",
    "void",
    "true",
    "false",
    "boolean",
    "int",
} | {op for op in (*m.BINARY_OPS, *m.UNARY_OPS) if op.isalpha()}

# The notation's punctuation ('=' ends an equation's head, '-' signs a
# range bound) and the operators' symbols, longest first so that "<="
# is one token and not "<" then "=".
_PUNCT = sorted({
    "->",
    ":=",
    "..",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    ".",
    ":",
    "=",
    "-",
} | {op for op in m.BINARY_OPS if not op.isalpha()}, key=lambda p: (-len(p), p))


class Token(NamedTuple):
    kind: str  # keyword text, punctuation text, "IDENT", "INT", "EOF"
    text: str
    line: int  # of the token's first character, as in Loc
    column: int

    @property
    def loc(self) -> Loc:
        return Loc(self.line, self.column)


# One alternative per token class, tried in this order at each offset.
# A word may start with any word character that is not a decimal digit,
# so that tokenize can reject a numeric one ('²', 'Ⅻ') as a whole.
_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<blank>[ \t\r]+)",
    r"(?P<INT>\d+)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    r"(?P<other>.)",
]))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the current line and the offset of its first character
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "newline":
            line, start = line + 1, match.end()
            continue
        if kind == "blank":
            continue
        text = match.group()
        column = match.start() - start + 1
        if kind == "word" and (text[0].isalpha() or text[0] == "_"):
            kind = text if text in _KEYWORDS else "IDENT"
        elif kind == "punct":
            kind = text
        elif kind != "INT":
            message = f"unexpected character {text[0]!r}"
            raise PadlError([Diagnostic(Severity.ERROR, "E_LEX", message, Loc(line, column))])
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, len(source) - start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting charged on the current path, see MAX_NESTING
        self.peak = 0  # the most charged in the expression being parsed, see parse_expr

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.at(kind):
            return self.advance()
        want = what or f"'{kind}'"
        found = self.cur.text or "end of file"
        self.fail(f"expected {want}, found {found!r}", self.cur.loc)

    def listed(self, item: Callable[[], T], sep: str = ",", ends: Collection[str] = ()) -> list[T]:
        """item (sep item)*, where a separator followed by one of `ends`
        ends the list: a trailing separator is tolerated there."""
        items = [item()]
        while self.accept(sep) and self.cur.kind not in ends:
            items.append(item())
        return items

    def fail(self, message: str, loc: Loc) -> None:
        raise PadlError([Diagnostic(Severity.ERROR, "E_SYNTAX", message, loc)])

    def descend(self, loc: Loc, levels: int = 1) -> None:
        """Enter a construct charged `levels` at loc; the caller leaves
        it with ``self.depth -= levels`` once it is parsed."""
        self.depth += levels
        self.peak = max(self.peak, self.depth)
        self.check_depth(self.depth, loc)

    def check_depth(self, level: int, loc: Loc) -> None:
        if level > MAX_NESTING:
            raise PadlError([Diagnostic(
                Severity.ERROR, "E_DEPTH",
                f"nesting deeper than {MAX_NESTING} levels (a parenthesis "
                f"counts {PAREN_LEVELS}, a choice branch {BRANCH_LEVELS}, an "
                "action prefix, 'not', unary '-' or binary operator 1)",
                loc,
            )])

    # -- grammar ------------------------------------------------------------

    def parse_description(self) -> m.ArchiDescription:
        head = self.expect("ARCHI_TYPE")
        name = self.expect("IDENT", "architectural type name").text
        params = self.parse_param_list(defaults_required=True)
        self.expect("ARCHI_BEHAVIOR")
        aets = []
        while self.at("ARCHI_ELEM_TYPE"):
            aets.append(self.parse_aet())
        self.expect("ARCHI_TOPOLOGY")
        self.expect("ARCHI_ELEM_INSTANCES")
        instances = self.listed(self.parse_instance, ";", _SECTION_KEYWORDS)
        self.expect("ARCHI_INTERACTIONS")
        archi = ([] if self.accept("void")
                 else self.listed(self.parse_endpoint, ";", _SECTION_KEYWORDS))
        self.expect("ARCHI_ATTACHMENTS")
        attachments = self.parse_attachments()
        self.expect("END")
        self.expect("EOF", "end of file after END")
        return m.ArchiDescription(
            name=name,
            params=tuple(params),
            aets=tuple(aets),
            instances=tuple(instances),
            archi_interactions=tuple(archi),
            attachments=tuple(attachments),
            loc=head.loc,
        )

    def parse_param_list(self, defaults_required: bool) -> list[m.Param]:
        self.expect("(")
        params = ([] if self.accept("void")
                  else self.listed(lambda: self.parse_param(defaults_required)))
        self.expect(")")
        return params

    def parse_param(self, default_required: bool) -> m.Param:
        loc = self.cur.loc
        ptype = self.parse_type()
        name = self.expect("IDENT", "parameter name").text
        default = None
        if self.accept(":="):
            default = self.parse_expr()
        if default_required and default is None:
            self.fail(f"parameter '{name}' needs a ':=' default value", loc)
        return m.Param(name=name, type=ptype, default=default, loc=loc)

    def parse_type(self) -> m.DataType:
        if self.accept("boolean"):
            return m.BoolType()
        tok = self.expect("int", "a type (boolean or int(lo..hi))")
        self.expect("(", "'(' with a declared range after 'int'")
        lo = self.parse_signed_int()
        self.expect("..")
        hi = self.parse_signed_int()
        self.expect(")")
        if lo > hi:
            self.fail(f"empty integer range {lo}..{hi}", tok.loc)
        return m.IntType(lo, hi)

    def parse_signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.parse_int()

    def parse_int(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            self.fail(f"integer literal too long ({len(tok.text)} digits)", tok.loc)

    # -- AET ---------------------------------------------------------------

    def parse_aet(self) -> m.AetDef:
        head = self.expect("ARCHI_ELEM_TYPE")
        name = self.expect("IDENT", "AET name").text
        params = self.parse_param_list(defaults_required=False)
        self.expect("BEHAVIOR")
        equations = self.listed(self.parse_equation, ";")
        interactions: list[m.InteractionDecl] = []
        self.expect("INPUT_INTERACTIONS")
        interactions += self.parse_interaction_decls(m.Direction.INPUT)
        self.expect("OUTPUT_INTERACTIONS")
        interactions += self.parse_interaction_decls(m.Direction.OUTPUT)
        return m.AetDef(
            name=name,
            params=tuple(params),
            equations=tuple(equations),
            interactions=tuple(interactions),
            loc=head.loc,
        )

    def parse_equation(self) -> m.BehaviorEquation:
        name_tok = self.expect("IDENT", "equation name")
        self.expect("(")
        params = ([] if self.accept("void")
                  else self.listed(lambda: self.parse_param(default_required=False)))
        self.expect(";", "';' separating parameters from the (void) local part")
        self.expect("void", "'void' (local variables are not supported)")
        self.expect(")")
        self.expect("=")
        body = self.parse_body()
        return m.BehaviorEquation(
            name=name_tok.text, params=tuple(params), body=body, loc=name_tok.loc
        )

    def parse_body(self) -> m.ProcessBody:
        loc = self.cur.loc
        if self.accept("stop"):
            return m.Stop(loc=loc)
        if self.accept("choice"):
            return self.parse_choice(loc)
        name = self.expect("IDENT", "an action, invocation, 'stop', or 'choice'").text
        if self.at("("):
            return self.parse_invoke(name, loc)
        self.expect(".", "'.' after action prefix")
        self.descend(loc)
        cont = self.parse_body()
        self.depth -= 1
        return m.Prefix(action=name, cont=cont, loc=loc)

    def parse_invoke(self, name: str, loc: Loc) -> m.Invoke:
        self.expect("(")
        args = [] if self.at(")") else self.listed(self.parse_expr)
        self.expect(")")
        return m.Invoke(equation=name, args=tuple(args), loc=loc)

    def parse_choice(self, loc: Loc) -> m.Choice:
        self.expect("{")
        # Not a listed(): its frame would cost a nesting level more than
        # BRANCH_LEVELS charges.
        branches = [self.parse_branch()]
        while self.accept(","):
            if self.at("}"):  # tolerate a trailing comma
                break
            branches.append(self.parse_branch())
        self.expect("}")
        return m.Choice(branches=tuple(branches), loc=loc)

    def parse_branch(self) -> m.Branch:
        loc = self.cur.loc
        guard = None
        self.descend(loc, BRANCH_LEVELS)
        if self.accept("cond"):
            self.expect("(")
            guard = self.parse_expr()
            self.expect(")")
            self.expect("->")
        body = self.parse_body()
        self.depth -= BRANCH_LEVELS
        if isinstance(body, m.Invoke):
            self.fail("a choice branch must start with an action prefix, 'stop', or a nested choice", loc)
        return m.Branch(guard=guard, body=body, loc=loc)

    def parse_interaction_decls(self, direction: m.Direction) -> list[m.InteractionDecl]:
        decls: list[m.InteractionDecl] = []
        if self.accept("void"):
            return decls
        sync = m.Synchronicity.SYNC
        mult: m.Multiplicity | None = None
        while True:
            if self.cur.kind in ("SYNC", "SSYNC", "ASYNC"):
                sync = m.Synchronicity[self.advance().kind]
            if self.cur.kind in ("UNI", "AND", "OR"):
                mult = m.Multiplicity[self.advance().kind]
            if mult is None:
                self.fail("interaction declarations need a UNI/AND/OR qualifier", self.cur.loc)
            name_tok = self.expect("IDENT", "interaction name")
            dep_on = None
            if self.accept("DEP"):
                dep_on = self.expect("IDENT", "DEP target interaction").text
            decls.append(
                m.InteractionDecl(
                    name=name_tok.text,
                    direction=direction,
                    multiplicity=mult,
                    synchronicity=sync,
                    dep_on=dep_on,
                    loc=name_tok.loc,
                )
            )
            if self.accept(";"):
                if self.cur.kind in _SECTION_KEYWORDS:  # tolerate a trailing semicolon
                    break
                continue
            # A new qualifier group may start without a separator.
            if self.cur.kind in ("SYNC", "SSYNC", "ASYNC", "UNI", "AND", "OR"):
                continue
            break
        return decls

    # -- topology ------------------------------------------------------------

    def parse_instance(self) -> m.Instance:
        name_tok = self.expect("IDENT", "instance name")
        self.expect(":")
        aet = self.expect("IDENT", "AET name").text
        self.expect("(")
        args = [] if self.at(")") or self.accept("void") else self.listed(self.parse_expr)
        self.expect(")")
        return m.Instance(name=name_tok.text, aet=aet, args=tuple(args), loc=name_tok.loc)

    def parse_endpoint(self) -> tuple[str, str]:
        aei = self.expect("IDENT", "AEI name").text
        self.expect(".")
        return aei, self.expect("IDENT", "interaction name").text

    def parse_attachments(self) -> list[m.Attachment]:
        if self.accept("void"):
            return []
        attachments: list[m.Attachment] = []
        # Not a listed(): a stray token after an attachment reads "expected 'END'".
        while self.at("FROM"):
            loc = self.advance().loc
            source = self.parse_endpoint()
            self.expect("TO")
            attachments.append(m.Attachment(*source, *self.parse_endpoint(), loc=loc))
            if not self.accept(";"):
                break
        return attachments

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, level: int = m.OR_LEVEL) -> m.Expr:
        """An expression whose operators bind at `level` or tighter, by
        precedence climbing over model.BINARY_OPS: after an operator only
        one of its own level or a looser one may follow, and after a
        comparison or a leading 'not' only a looser one."""
        # self.peak becomes the most charged on any path through the
        # expression: an operator sits one level above its left operand,
        # known only once the loop reaches it, and its right operand is
        # charged on the path, as parsing it takes a frame.
        outer, self.peak = self.peak, self.depth
        nots = []
        while level <= m.NOT_LEVEL and self.at("not"):
            nots.append(self.advance().loc)
            self.descend(nots[-1])
        if nots:
            left = self.parse_expr(m.NOT_LEVEL + 1)
            for loc in reversed(nots):
                left = m.Unary("not", left, loc=loc)
            self.depth -= len(nots)
            tightest = m.NOT_LEVEL - 1
        else:
            left = self.parse_atom()
            tightest = m.ATOM_LEVEL
        while (op := m.BINARY_OPS.get(self.cur.kind)) and level <= op.level <= tightest:
            tok = self.advance()
            left_peak = self.peak
            self.descend(tok.loc)
            right = self.parse_expr(op.level + 1)
            self.depth -= 1
            self.peak = max(self.peak, left_peak + 1)
            self.check_depth(self.peak, tok.loc)
            left = m.Binary(tok.kind, left, right, loc=tok.loc)
            tightest = op.level if op.chains else op.level - 1
        self.peak = max(outer, self.peak)
        return left

    def parse_atom(self) -> m.Expr:
        tok = self.cur
        if self.accept("true"):
            return m.BoolLit(True, loc=tok.loc)
        if self.accept("false"):
            return m.BoolLit(False, loc=tok.loc)
        if self.at("INT"):
            return m.IntLit(self.parse_int(), loc=tok.loc)
        if self.accept("-"):
            self.descend(tok.loc)
            sub = self.parse_atom()
            self.depth -= 1
            return m.Unary("-", sub, loc=tok.loc)
        if self.accept("("):
            self.descend(tok.loc, PAREN_LEVELS)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= PAREN_LEVELS
            return inner
        if self.at("IDENT"):
            self.advance()
            # "." is not the last token: EOF follows everything
            if self.at(".") and self.tokens[self.pos + 1].text == "success":
                self.advance()
                self.advance()
                return m.SuccessVar(tok.text, loc=tok.loc)
            return m.Var(tok.text, loc=tok.loc)
        self.fail(f"expected an expression, found {tok.text!r}", tok.loc)


def parse(source: str, filename: str = "<input>") -> m.ArchiDescription:
    """Parse PADL source into an ArchiDescription.

    Raises PadlError with positioned diagnostics on lexical or
    syntactic problems; never raises anything else on malformed input.
    """
    try:
        tokens = tokenize(source)
        return _Parser(tokens).parse_description()
    except PadlError as err:
        err.filename = filename
        raise
