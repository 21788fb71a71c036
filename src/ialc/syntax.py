"""Syntax for intuitionistic ALC with hybrid assertions.

Concepts include subsumption ``->`` as a first-class constructor, so
``A -> B`` is itself a concept.  Assertions attach formulas to named
individuals (nominals): ``x : C`` says concept C holds at x, ``R(x,y)``
relates two individuals, and assertions may nest as ``x : (y : C)``.

Concrete grammar (ASCII):

    concept  :=  top | bot | ATOM | not concept | concept & concept
              |  concept "|" concept | concept -> concept
              |  some ROLE.concept | all ROLE.concept | ( concept )
    formula  :=  concept | NOMINAL : body | ROLE(NOMINAL, NOMINAL)
    body     :=  concept | ( NOMINAL : body )
    sequent  :=  [formula (; formula)*] |- formula

Atoms and roles start with an uppercase letter; nominals start with a
lowercase letter or underscore (``top``, ``bot``, ``not``, ``some``,
``all`` are reserved).  Precedence, tightest first: ``not``/quantifiers,
``&``, ``|``, ``->``.  ``->`` is right-associative, ``&`` and ``|``
left-associative, and a quantifier body is a single unary item, so
``all R.A & B`` reads ``(all R.A) & B``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

__all__ = [
    "Atom", "Top", "Bot", "Not", "And", "Or", "Subs", "Exists", "Forall",
    "Concept", "ConceptF", "NominalAssertion", "RoleAssertion", "Formula",
    "Sequent", "Problem", "ParseError", "MAX_NESTING",
    "parse_concept", "parse_formula", "parse_sequent", "parse_problem",
    "render", "outer_nominal", "atoms_of", "roles_of", "nominals_of",
    "TOP", "BOT",
]


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Concept:
    """Base class for concept expressions."""


@dataclass(frozen=True)
class Atom(Concept):
    name: str


@dataclass(frozen=True)
class Top(Concept):
    pass


@dataclass(frozen=True)
class Bot(Concept):
    pass


@dataclass(frozen=True)
class Not(Concept):
    body: Concept


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Subs(Concept):
    """Subsumption used as a concept former: ``left -> right``."""
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Exists(Concept):
    role: str
    body: Concept


@dataclass(frozen=True)
class Forall(Concept):
    role: str
    body: Concept


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class Formula:
    """Base class for sequent members: concepts, assertions."""


@dataclass(frozen=True)
class ConceptF(Formula):
    concept: Concept


@dataclass(frozen=True)
class NominalAssertion(Formula):
    """``x : body`` where body is a concept formula or a nested assertion."""
    nominal: str
    body: Formula

    def __post_init__(self):
        if isinstance(self.body, RoleAssertion):
            raise ValueError("nominal assertion body cannot be a role assertion")
        if not isinstance(self.body, (ConceptF, NominalAssertion)):
            raise TypeError(f"bad assertion body: {self.body!r}")


@dataclass(frozen=True)
class RoleAssertion(Formula):
    subject: str
    role: str
    object: str


@dataclass(frozen=True)
class Sequent:
    antecedent: frozenset[Formula]
    succedent: Formula

    @staticmethod
    def make(antecedent: Iterable[Formula], succedent: Formula) -> "Sequent":
        return Sequent(frozenset(antecedent), succedent)

    def with_extra(self, *extra: Formula) -> "Sequent":
        return Sequent(self.antecedent | frozenset(extra), self.succedent)


@dataclass(frozen=True)
class Problem:
    """A reasoning task: theory (global axioms), assumptions, and a goal."""
    theory: tuple[Formula, ...]
    assumptions: tuple[Formula, ...]
    goal: Formula

    def sequent(self) -> Sequent:
        return Sequent.make(tuple(self.theory) + tuple(self.assumptions), self.goal)


def outer_nominal(f: Formula) -> Optional[str]:
    """The outermost nominal of an assertion, None for concepts and R(x,y)."""
    if isinstance(f, NominalAssertion):
        return f.nominal
    return None


def _walk(obj, inner=(Concept, Formula)) -> Iterable[Union[Concept, Formula]]:
    """The nodes of obj, parents first, descending only into ``inner`` ones."""
    if isinstance(obj, Sequent):
        for m in (*obj.antecedent, obj.succedent):
            yield from _walk(m, inner)
        return
    if not isinstance(obj, (Concept, Formula)):
        raise TypeError(f"cannot walk {obj!r}")
    yield obj
    for child in vars(obj).values():
        if isinstance(child, inner):
            yield from _walk(child, inner)


def atoms_of(obj) -> frozenset[str]:
    return frozenset(c.name for c in _walk(obj) if isinstance(c, Atom))


def roles_of(obj) -> frozenset[str]:
    return frozenset(c.role for c in _walk(obj)
                     if isinstance(c, (Exists, Forall, RoleAssertion)))


def nominals_of(obj) -> frozenset[str]:
    noms: set[str] = set()
    for f in _walk(obj, Formula):
        if isinstance(f, NominalAssertion):
            noms.add(f.nominal)
        elif isinstance(f, RoleAssertion):
            noms.update((f.subject, f.object))
    return frozenset(noms)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class ParseError(Exception):
    """Syntax error with position and the set of expected items."""

    def __init__(self, message: str, line: int, col: int, expected: Iterable[str] = ()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        super().__init__(message)

    def __str__(self):
        base = f"{self.line}:{self.col}: {self.args[0]}"
        if self.expected:
            base += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return base


_KEYWORDS = {"top", "bot", "not", "some", "all"}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<turnstile>\|-)
    | (?P<arrow>->)
    | (?P<amp>&)
    | (?P<bar>\|)
    | (?P<colon>:)
    | (?P<semi>;)
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str            # one of the regex groups, a keyword, or "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _is_upper(tok: _Token) -> bool:
    return tok.kind == "ident" and tok.value[0].isupper()


def _is_lower(tok: _Token) -> bool:
    return tok.kind == "ident" and not tok.value[0].isupper()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

MAX_NESTING = 100     # parentheses, prefixes, nested assertions, operator chains


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def deeper(self) -> None:
        """Count one more nesting level, failing at the current token beyond
        MAX_NESTING (this bounds every later recursion); chains restore it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"input nested deeper than {MAX_NESTING} levels",
                             tok.line, tok.col)

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: Iterable[str]) -> ParseError:
        tok = self.peek()
        found = repr(tok.value) if tok.kind != "eof" else "end of input"
        return ParseError(f"unexpected {found}", tok.line, tok.col, expected)

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise self.error({what})
        return self.next()

    # -- concepts ----------------------------------------------------------

    def concept(self) -> Concept:
        return self.subs()

    def subs(self) -> Concept:
        left = self.disj()
        if self.peek().kind == "arrow":
            self.next()
            self.deeper()
            right = self.subs()
            self.depth -= 1
            return Subs(left, right)
        return left

    def disj(self) -> Concept:
        saved = self.depth
        c = self.conj()
        while self.peek().kind == "bar":
            self.next()
            self.deeper()       # each operator nests the tree one deeper
            c = Or(c, self.conj())
        self.depth = saved
        return c

    def conj(self) -> Concept:
        saved = self.depth
        c = self.unary()
        while self.peek().kind == "amp":
            self.next()
            self.deeper()
            c = And(c, self.unary())
        self.depth = saved
        return c

    def unary(self) -> Concept:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            self.deeper()
            return Not(self.unary())
        if tok.kind in ("some", "all"):
            self.next()
            self.deeper()
            role = self.expect_role()
            self.expect("dot", "'.'")
            return (Exists if tok.kind == "some" else Forall)(role, self.unary())
        if tok.kind == "top":
            self.next()
            return TOP
        if tok.kind == "bot":
            self.next()
            return BOT
        if _is_upper(tok):
            self.next()
            return Atom(tok.value)
        if tok.kind == "lpar":
            self.next()
            self.deeper()
            c = self.concept()
            self.expect("rpar", "')'")
            return c
        raise self.error({"concept"})

    def expect_role(self) -> str:
        tok = self.peek()
        if not _is_upper(tok):
            raise self.error({"role name (uppercase)"})
        return self.next().value

    def expect_nominal(self) -> str:
        tok = self.peek()
        if tok.kind in _KEYWORDS or not _is_lower(tok):
            raise self.error({"nominal (lowercase)"})
        return self.next().value

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        tok = self.peek()
        if _is_upper(tok) and self.peek(1).kind == "lpar":
            return self.role_assertion()
        if _is_lower(tok) and tok.kind == "ident" and self.peek(1).kind == "colon":
            return self.nominal_assertion()
        return ConceptF(self.concept())

    def role_assertion(self) -> RoleAssertion:
        role = self.expect_role()
        self.expect("lpar", "'('")
        x = self.expect_nominal()
        self.expect("comma", "','")
        y = self.expect_nominal()
        self.expect("rpar", "')'")
        return RoleAssertion(x, role, y)

    def nominal_assertion(self) -> NominalAssertion:
        name = self.expect_nominal()
        self.expect("colon", "':'")
        # a parenthesized nested assertion, e.g. x : (y : C)
        if (self.peek().kind == "lpar" and _is_lower(self.peek(1))
                and self.peek(1).kind == "ident" and self.peek(2).kind == "colon"):
            self.next()
            self.deeper()
            inner = self.nominal_assertion()
            self.depth -= 1
            self.expect("rpar", "')'")
            return NominalAssertion(name, inner)
        return NominalAssertion(name, ConceptF(self.concept()))

    # -- sequents ----------------------------------------------------------

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.peek().kind != "turnstile":
            antecedent.append(self.formula())
            while self.peek().kind == "semi":
                self.next()
                antecedent.append(self.formula())
        self.expect("turnstile", "'|-'")
        if self.peek().kind == "eof":
            raise self.error({"succedent formula"})
        succedent = self.formula()
        return Sequent.make(antecedent, succedent)

    def eof(self):
        if self.peek().kind != "eof":
            raise self.error({"end of input"})


def parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    p.eof()
    return c


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.eof()
    return f


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    s = p.sequent()
    p.eof()
    return s


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# binding strength of each binary level; unary constructs sit above these
_PREC_SUBS, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _render_concept(c: Concept, min_prec: int) -> str:
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bot):
        return "bot"
    if isinstance(c, Not):
        return "not " + _render_concept(c.body, _PREC_UNARY)
    if isinstance(c, Exists):
        return f"some {c.role}." + _render_concept(c.body, _PREC_UNARY)
    if isinstance(c, Forall):
        return f"all {c.role}." + _render_concept(c.body, _PREC_UNARY)
    if isinstance(c, And):
        s = (_render_concept(c.left, _PREC_AND) + " & "
             + _render_concept(c.right, _PREC_AND + 1))
        own = _PREC_AND
    elif isinstance(c, Or):
        s = (_render_concept(c.left, _PREC_OR) + " | "
             + _render_concept(c.right, _PREC_OR + 1))
        own = _PREC_OR
    elif isinstance(c, Subs):
        s = (_render_concept(c.left, _PREC_SUBS + 1) + " -> "
             + _render_concept(c.right, _PREC_SUBS))
        own = _PREC_SUBS
    else:
        raise TypeError(f"not a concept: {c!r}")
    return "(" + s + ")" if own < min_prec else s


def render(obj: Union[Concept, Formula, Sequent]) -> str:
    """Concrete syntax for a concept, formula, or sequent; reparses to obj."""
    if isinstance(obj, Concept):
        return _render_concept(obj, 0)
    if isinstance(obj, ConceptF):
        return _render_concept(obj.concept, 0)
    if isinstance(obj, RoleAssertion):
        return f"{obj.role}({obj.subject},{obj.object})"
    if isinstance(obj, NominalAssertion):
        if isinstance(obj.body, NominalAssertion):
            return f"{obj.nominal} : ({render(obj.body)})"
        # parenthesize binary bodies for readability: x : (A -> B)
        return f"{obj.nominal} : " + _render_concept(obj.body.concept, _PREC_UNARY)
    if isinstance(obj, Sequent):
        succ = render(obj.succedent)
        if not obj.antecedent:
            return "|- " + succ
        members = sorted(render(m) for m in obj.antecedent)
        return " ; ".join(members) + " |- " + succ
    raise TypeError(f"cannot render {obj!r}")


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_SECTIONS = ("theory", "assume", "goal")


def parse_problem(text: str) -> Problem:
    """Parse a problem file with ``theory:``/``assume:``/``goal:`` sections."""
    sections: dict[str, list[Formula]] = {name: [] for name in _SECTIONS}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = line[:-1].strip() if line.endswith(":") else None
        if header in _SECTIONS:
            current = header
            continue
        if current is None:
            raise ParseError("formula before any section header",
                             lineno, 1, {"theory:", "assume:", "goal:"})
        try:
            f = parse_formula(line)
        except ParseError as e:
            raise ParseError(e.args[0], lineno, e.col, e.expected) from None
        if current == "theory" and not _is_theory_formula(f):
            raise ParseError(
                "theory members must be subsumptions or assertions", lineno, 1)
        sections[current].append(f)
    goals = sections["goal"]
    if len(goals) != 1:
        raise ParseError(f"expected exactly one goal formula, found {len(goals)}",
                         len(text.splitlines()) or 1, 1)
    return Problem(tuple(sections["theory"]), tuple(sections["assume"]), goals[0])


def _is_theory_formula(f: Formula) -> bool:
    if isinstance(f, (NominalAssertion, RoleAssertion)):
        return True
    return isinstance(f, ConceptF) and isinstance(f.concept, Subs)
