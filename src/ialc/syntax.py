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
``all`` are reserved).  One operator table is the source of precedence
for parser and printer, tightest first: ``not``/quantifiers, ``&``, ``|``,
``->``.  ``->`` is right-associative, ``&`` and ``|`` left-associative,
and a quantifier body is one unary item: ``all R.A & B`` is ``(all R.A) & B``.

One ``re`` pass lexes the text into a flat list of token strings, ending
in the empty end-of-input sentinel: a punctuation or keyword token's text
is its kind, and an identifier's first character says whether it is an
atom/role or a nominal.  The parser indexes that list and keeps no
positions; a ``ParseError``'s line and column are computed from the
failing token's offset only when the error is raised, and a character
that starts no token is reported before any other error.  ``substitute``
replaces atoms, roles and nominals at once; Hilbert schema instances and
the instances of the axiom roots written once in ``golden.AXIOM_ROOTS`` use it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

__all__ = [
    "Atom", "Top", "Bot", "Not", "And", "Or", "Subs", "Exists", "Forall",
    "Concept", "ConceptF", "NominalAssertion", "RoleAssertion", "Formula",
    "Sequent", "Problem", "ParseError", "MAX_NESTING",
    "parse_concept", "parse_formula", "parse_sequent", "parse_problem",
    "render", "outer_nominal", "atoms_of", "roles_of", "nominals_of",
    "substitute", "TOP", "BOT",
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


def substitute(obj, names: Mapping[str, Union[Concept, str]]):
    """A concept, formula or sequent with each atom that names maps to a
    concept, and each role or nominal that it maps to a name, replaced by
    it, all at once: a replacement is never substituted again."""
    if isinstance(obj, Sequent):
        return Sequent.make([substitute(m, names) for m in obj.antecedent],
                            substitute(obj.succedent, names))
    if isinstance(obj, Atom):
        return value if isinstance(value := names.get(obj.name), Concept) else obj
    if isinstance(obj, str):
        return value if isinstance(value := names.get(obj), str) else obj
    fields = vars(obj).values()     # none for top and bot, kept as themselves
    return type(obj)(*(substitute(v, names) for v in fields)) if fields else obj


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


# The operator table.  Binary levels loosest first: the index is the
# precedence, the flag says right-associative.  Prefix items, atoms and
# constants bind tighter, at _UNARY.  The printer reads it by node type.
_BINARY = (("->", Subs, True), ("|", Or, False), ("&", And, False))
_PREFIX = {"not": Not, "some": Exists, "all": Forall}
_CONSTANTS = {"top": TOP, "bot": BOT}
_UNARY = len(_BINARY)
_INFIX = {make: (level, f" {token} ", right) for level, (token, make, right) in enumerate(_BINARY)}
_WORDS = {m: w for w, m in _PREFIX.items()} | {type(c): w for w, c in _CONSTANTS.items()}

_KEYWORDS = frozenset(_PREFIX) | frozenset(_CONSTANTS)
_PUNCT = frozenset({"|-", ":", ";", ",", ".", "(", ")"}) | {t for t, _, _ in _BINARY}
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz_")

# Whitespace and comments are skipped before each token.  The empty match
# at the end of the text is the end-of-input sentinel, and "." takes a
# character that starts no token, which fails the whole input.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|\#[^\n]*)*(\|-|->|[&|:;,.()]|[A-Za-z_][A-Za-z0-9_']*|\Z|.)", re.S)


def _error_at(text: str, offset: int, message: str, expected: Iterable[str] = ()) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1, expected)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

MAX_NESTING = 100     # parentheses, prefixes, nested assertions, operator chains


class _Parser:
    """Recursive descent over the flat token list ``toks``.  A token's text
    is its kind; an identifier is an atom or role when it starts uppercase,
    a nominal otherwise.  Positions are recovered only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.i = 0
        self.depth = 0

    def error(self, expected: Iterable[str] = (), message: Optional[str] = None) -> ParseError:
        """The error at the current token, unless a character that starts no
        token occurs anywhere in the input: the first such one is reported."""
        offsets = []
        for m in _TOKEN_RE.finditer(self.text):
            t = m[1]
            if t and t not in _PUNCT and t[0] not in _UPPER and t[0] not in _LOWER:
                return _error_at(self.text, m.start(1), f"unexpected character {t!r}")
            offsets.append(m.start(1))
        if message is None:
            t = self.toks[self.i]
            message = f"unexpected {repr(t) if t else 'end of input'}"
        return _error_at(self.text, offsets[self.i], message, expected)

    def deeper(self) -> None:
        """Count one more nesting level, failing at the current token beyond
        MAX_NESTING (this bounds every later recursion); each construct
        restores it when it closes."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(message=f"input nested deeper than {MAX_NESTING} levels")

    def expect(self, kind: str, what: str) -> None:
        if self.toks[self.i] != kind:
            raise self.error({what})
        self.i += 1

    # -- concepts ----------------------------------------------------------

    def concept(self, level: int = 0) -> Concept:
        """A chain of the operator at ``level`` of _BINARY; the right operand
        of a right-associative one is the rest of the chain."""
        if level == _UNARY:
            return self.unary()
        token, make, right = _BINARY[level]
        c = self.concept(level + 1)
        if self.toks[self.i] != token:
            return c
        saved = self.depth
        while self.toks[self.i] == token:
            self.i += 1
            self.deeper()       # each operator nests the tree one deeper
            c = make(c, self.concept(level if right else level + 1))
        self.depth = saved
        return c

    def unary(self) -> Concept:
        t = self.toks[self.i]
        if t[:1] in _UPPER:
            self.i += 1
            return Atom(t)
        if t in _CONSTANTS:
            self.i += 1
            return _CONSTANTS[t]
        if t != "(" and t not in _PREFIX:
            raise self.error({"concept"})
        self.i += 1
        self.deeper()
        if t == "(":
            c = self.concept()
            self.expect(")", "')'")
        elif _PREFIX[t] is Not:
            c = Not(self.unary())
        else:
            role = self.expect_role()
            self.expect(".", "'.'")
            c = _PREFIX[t](role, self.unary())
        self.depth -= 1     # the item is closed: a chain around it counts no deeper
        return c

    def expect_role(self) -> str:
        t = self.toks[self.i]
        if t[:1] not in _UPPER:
            raise self.error({"role name (uppercase)"})
        self.i += 1
        return t

    def expect_nominal(self) -> str:
        t = self.toks[self.i]
        if t[:1] not in _LOWER or t in _KEYWORDS:
            raise self.error({"nominal (lowercase)"})
        self.i += 1
        return t

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        t = self.toks[self.i]
        if t[:1] in _UPPER and self.toks[self.i + 1] == "(":
            return self.role_assertion()
        if t[:1] in _LOWER and t not in _KEYWORDS and self.toks[self.i + 1] == ":":
            return self.nominal_assertion()
        return ConceptF(self.concept())

    def role_assertion(self) -> RoleAssertion:
        role = self.expect_role()
        self.expect("(", "'('")
        x = self.expect_nominal()
        self.expect(",", "','")
        y = self.expect_nominal()
        self.expect(")", "')'")
        return RoleAssertion(x, role, y)

    def nominal_assertion(self) -> NominalAssertion:
        name = self.expect_nominal()
        self.expect(":", "':'")
        # a parenthesized nested assertion, e.g. x : (y : C)
        toks, i = self.toks, self.i
        if (toks[i] == "(" and toks[i + 1][:1] in _LOWER
                and toks[i + 1] not in _KEYWORDS and toks[i + 2] == ":"):
            self.i += 1
            self.deeper()
            inner = self.nominal_assertion()
            self.depth -= 1
            self.expect(")", "')'")
            return NominalAssertion(name, inner)
        return NominalAssertion(name, ConceptF(self.concept()))

    # -- sequents ----------------------------------------------------------

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.toks[self.i] != "|-":
            antecedent.append(self.formula())
            while self.toks[self.i] == ";":
                self.i += 1
                antecedent.append(self.formula())
        self.expect("|-", "'|-'")
        if not self.toks[self.i]:
            raise self.error({"succedent formula"})
        succedent = self.formula()
        return Sequent.make(antecedent, succedent)


def _parse(text: str, rule):
    p = _Parser(text)
    result = rule(p)
    if p.toks[p.i]:
        raise p.error({"end of input"})
    return result


def parse_concept(text: str) -> Concept:
    return _parse(text, _Parser.concept)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, _Parser.sequent)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _render_concept(c: Concept, min_prec: int) -> str:
    """c in concrete syntax, parenthesized when its binary level binds
    looser than min_prec."""
    kind = type(c)
    if kind is Atom:
        return c.name
    if kind in _INFIX:
        level, token, right = _INFIX[kind]
        s = (_render_concept(c.left, level + right) + token
             + _render_concept(c.right, level + 1 - right))
        return "(" + s + ")" if level < min_prec else s
    word = _WORDS.get(kind)
    if word is None:
        raise TypeError(f"not a concept: {c!r}")
    if kind is Top or kind is Bot:
        return word
    head = word + " " if kind is Not else f"{word} {c.role}."
    return head + _render_concept(c.body, _UNARY)


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
        return f"{obj.nominal} : " + _render_concept(obj.body.concept, _UNARY)
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
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        header = line[:-1].strip() if line.endswith(":") else None
        if header in _SECTIONS:
            current = header
            continue
        if current is None:
            raise ParseError("formula before any section header",
                             lineno, 1, {"theory:", "assume:", "goal:"})
        f = _parse_line(parse_formula, code, lineno)
        if current == "theory" and not _is_theory_formula(f):
            raise ParseError(
                "theory members must be subsumptions or assertions", lineno, 1)
        sections[current].append(f)
    goals = sections["goal"]
    if len(goals) != 1:
        raise ParseError(f"expected exactly one goal formula, found {len(goals)}",
                         len(text.splitlines()) or 1, 1)
    return Problem(tuple(sections["theory"]), tuple(sections["assume"]), goals[0])


def _parse_line(parse, code: str, lineno: int, start: int = 0):
    """parse(code.strip()) for a piece of line lineno that begins at column
    start + 1; an error is placed on that line, the end of input at the end
    of the piece."""
    text = code.strip()
    try:
        return parse(text)
    except ParseError as e:
        col = e.col + len(code) - len(code.lstrip()) if e.col <= len(text) else len(code) + 1
        raise ParseError(e.args[0], lineno, start + col, e.expected) from None


def _is_theory_formula(f: Formula) -> bool:
    if isinstance(f, (NominalAssertion, RoleAssertion)):
        return True
    return isinstance(f, ConceptF) and isinstance(f.concept, Subs)
