"""Syntax for intuitionistic ALC with hybrid assertions.

Concepts include subsumption ``->`` as a first-class constructor, so
``A -> B`` is itself a concept.  Assertions attach formulas to named
individuals (nominals): ``x : C`` says concept C holds at x, ``R(x,y)``
relates two individuals, and assertions may nest as ``x : (y : C)``.
Concept and formula nodes are hash-consed (Filliâtre and Conchon, 2006):
constructing one returns the node built before from the same class and fields,
so equality is identity; each node keeps its field tuple and caches its text.
The table is process-global and never shrinks: about 2.5k nodes after a
``prove_check`` benchmark pass, 120k (some 30 MB) after the test suite.

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
that starts no token is reported before any other error.  ``parse_sequent``
is the one sequent parser, and every parse goes through one table from (rule,
text) to what the rule parsed: only successful parses fill it, never the
printer, and like the node table it is process-global and never shrinks.
``substitute`` replaces atoms, roles and nominals at once; Hilbert schema
instances and the instances of the axiom roots written once in
``hilbert.AXIOM_ROOTS`` use it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

__all__ = [
    "Atom", "Top", "Bot", "Not", "And", "Or", "Subs", "Exists", "Forall",
    "Concept", "ConceptF", "NominalAssertion", "RoleAssertion", "Formula",
    "Sequent", "Problem", "ParseError", "MAX_NESTING",
    "parse_concept", "parse_formula", "parse_sequent", "parse_problem",
    "render", "outer_nominal", "atoms_of", "roles_of", "nominals_of",
    "substitute", "TOP", "BOT",
]


# ---------------------------------------------------------------------------
# Abstract syntax: hash-consed nodes
# ---------------------------------------------------------------------------

_NODES: dict = {}       # (class, fields) -> node, process-global, never shrinks
_PARSED: dict = {}      # (parse rule, text) -> what the rule parsed; successes only, never shrinks


class FrozenInstanceError(AttributeError):
    """An assignment to a field of an immutable node."""


class _Node:
    """A hash-consed syntax node; ``fields`` are its field values in ``__slots__`` order."""
    __slots__ = ("fields", "_text")

    def __new__(cls, *fields):
        node = _NODES.get(key := (cls, fields))
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields: {fields!r}")
            node = object.__new__(cls)
            object.__setattr__(node, "fields", fields)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            node = _NODES.setdefault(key, node._checked())     # one winner across threads
        return node

    def _checked(self) -> "_Node":
        return self

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):       # copies and unpickled nodes are the interned node
        return type(self), self.fields

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self.fields))
        return f"{type(self).__name__}({args})"


class Concept(_Node):
    """Base class for concept expressions."""
    __slots__ = ()


class Formula(_Node):
    """Base class for sequent members: concepts, assertions."""
    __slots__ = ()


# The node kinds and their fields.  Subs is subsumption used as a concept
# former, ``left -> right``; ConceptF is a concept used as a formula.
class Atom(Concept): __slots__ = ("name",)
class Top(Concept): __slots__ = ()
class Bot(Concept): __slots__ = ()
class Not(Concept): __slots__ = ("body",)
class And(Concept): __slots__ = ("left", "right")
class Or(Concept): __slots__ = ("left", "right")
class Subs(Concept): __slots__ = ("left", "right")
class Exists(Concept): __slots__ = ("role", "body")
class Forall(Concept): __slots__ = ("role", "body")
class ConceptF(Formula): __slots__ = ("concept",)
class RoleAssertion(Formula): __slots__ = ("subject", "role", "object")


TOP, BOT = Top(), Bot()


class NominalAssertion(Formula):
    """``x : body`` where body is a concept formula or a nested assertion."""
    __slots__ = ("nominal", "body")

    def _checked(self) -> "NominalAssertion":
        if isinstance(self.body, RoleAssertion):
            raise ValueError("nominal assertion body cannot be a role assertion")
        if not isinstance(self.body, (ConceptF, NominalAssertion)):
            raise TypeError(f"bad assertion body: {self.body!r}")
        return self


class Sequent(NamedTuple):
    antecedent: frozenset[Formula]
    succedent: Formula

    @staticmethod
    def make(antecedent: Iterable[Formula], succedent: Formula) -> "Sequent":
        return Sequent(frozenset(antecedent), succedent)

    def with_extra(self, *extra: Formula) -> "Sequent":
        return Sequent(self.antecedent | frozenset(extra), self.succedent)


class Problem(NamedTuple):
    """A reasoning task: theory (global axioms), assumptions, and a goal."""
    theory: tuple[Formula, ...]
    assumptions: tuple[Formula, ...]
    goal: Formula

    def sequent(self) -> Sequent:
        return Sequent.make(tuple(self.theory) + tuple(self.assumptions), self.goal)


def outer_nominal(f: Formula) -> Optional[str]:
    """The outermost nominal of an assertion, None for concepts and R(x,y)."""
    return f.nominal if isinstance(f, NominalAssertion) else None


def _walk(obj, inner=(Concept, Formula)) -> Iterator[Union[Concept, Formula]]:
    """The nodes of obj (a sequent's members in turn), parents first,
    descending only into ``inner`` ones.  One explicit stack of the nodes
    still to visit, not a generator per level, so a node is yielded once
    rather than passed up through its ancestors, and any depth walks: there
    is no recursion limit."""
    stack = [*obj.antecedent, obj.succedent][::-1] if isinstance(obj, Sequent) else [obj]
    for root in stack:
        if not isinstance(root, (Concept, Formula)):
            raise TypeError(f"cannot walk {root!r}")
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        yield node
        for child in reversed(node.fields):
            if isinstance(child, inner):
                push(child)


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
    return type(obj)(*(substitute(v, names) for v in obj.fields))


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
_LEVELS = {token: (level, make, right) for level, (token, make, right) in enumerate(_BINARY)}
_INFIX = {make: (level, f" {token} ", right) for level, (token, make, right) in enumerate(_BINARY)}
_WORDS = {m: w for w, m in _PREFIX.items()} | {type(c): w for w, c in _CONSTANTS.items()}

_KEYWORDS = frozenset(_PREFIX) | frozenset(_CONSTANTS)
_PUNCT = frozenset({"|-", ":", ";", ",", ".", "(", ")"}) | {t for t, _, _ in _BINARY}
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz_")

# Whitespace and comments are skipped before each token.  The empty match
# at the end of the text is the end-of-input sentinel, and "." takes a
# character that starts no token, which fails the whole input.
_SPACE = " \t\r\n"
_TOKEN_RE = re.compile(
    rf"(?:[{_SPACE}]|\#[^\n]*)*(\|-|->|[&|:;,.()]|[A-Za-z_][A-Za-z0-9_']*|\Z|.)", re.S)


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
        """Operators of ``level`` of _BINARY or tighter, by precedence
        climbing: the right operand of a right-associative operator is read
        at its own level, of the others one tighter.  Each operator of a
        chain nests one deeper, and a chain's count ends with the chain."""
        c, saved, chain = self.unary(), self.depth, None
        while (op := _LEVELS.get(self.toks[self.i])) and op[0] >= level:
            at, make, right = op
            if at != chain:         # a looser operator closes the tighter chain
                self.depth, chain = saved, at
            self.i += 1
            self.deeper()
            c = make(c, self.concept(at if right else at + 1))
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
            role = self.expect_name(_UPPER, "role name (uppercase)")
            self.expect(".", "'.'")
            c = _PREFIX[t](role, self.unary())
        self.depth -= 1     # the item is closed: a chain around it counts no deeper
        return c

    def expect_name(self, initials: frozenset, what: str) -> str:
        t = self.toks[self.i]
        if t[:1] not in initials or t in _KEYWORDS:
            raise self.error({what})
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
        role = self.expect_name(_UPPER, "role name (uppercase)")
        self.expect("(", "'('")
        x = self.expect_name(_LOWER, "nominal (lowercase)")
        self.expect(",", "','")
        y = self.expect_name(_LOWER, "nominal (lowercase)")
        self.expect(")", "')'")
        return RoleAssertion(x, role, y)

    def nominal_assertion(self) -> NominalAssertion:
        name = self.expect_name(_LOWER, "nominal (lowercase)")
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
    found = _PARSED.get(key := (rule, text)) if isinstance(text, str) else None
    if found is None:
        p = _Parser(text)
        found = rule(p)
        if p.toks[p.i]:
            raise p.error({"end of input"})
        _PARSED[key] = found
    return found


def parse_concept(text: str) -> Concept:
    return _parse(text, _Parser.concept)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    """The sequent of text: outside comments ';' and '|-' occur only as tokens, so the
    members of a text without '#' are read one by one, and the whole text if one fails."""
    if isinstance(text, str) and "#" not in text and "|-" in text:
        ant, _, succ = text.partition("|-")
        try:
            return Sequent.make([parse_formula(m.strip(_SPACE)) for m in ant.split(";")]
                                if ant.strip(_SPACE) else (), parse_formula(succ.strip(_SPACE)))
        except ParseError:
            pass
    return _parse(text, _Parser.sequent)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _text(node, min_prec: int = -1) -> str:
    """The concrete syntax of a concept or formula node, cached on it; a nonnegative
    min_prec asks for a concept, parenthesized if its level binds looser."""
    if min_prec >= 0 and not isinstance(node, Concept):
        raise TypeError(f"not a concept: {node!r}")
    text = getattr(node, "_text", None)     # unset until the node is first rendered
    if text is None:
        object.__setattr__(node, "_text", text := _node_text(node))
    return f"({text})" if min_prec > 0 and _INFIX.get(type(node), (_UNARY,))[0] < min_prec else text


def _node_text(node) -> str:
    kind = type(node)
    if kind is Atom:
        return node.name
    if kind in _INFIX:
        level, token, right = _INFIX[kind]
        return _text(node.left, level + right) + token + _text(node.right, level + 1 - right)
    if kind is Top or kind is Bot:
        return _WORDS[kind]
    if kind in _WORDS:
        head = _WORDS[kind] + " " if kind is Not else f"{_WORDS[kind]} {node.role}."
        return head + _text(node.body, _UNARY)
    if kind is ConceptF:
        return _text(node.concept, 0)
    if kind is RoleAssertion:
        return f"{node.role}({node.subject},{node.object})"
    if kind is NominalAssertion and isinstance(node.body, NominalAssertion):
        return f"{node.nominal} : ({_text(node.body)})"
    if kind is NominalAssertion:
        # parenthesize binary bodies for readability: x : (A -> B)
        return f"{node.nominal} : " + _text(node.body.concept, _UNARY)
    raise TypeError(f"cannot render {node!r}")


def render(obj: Union[Concept, Formula, Sequent]) -> str:
    """Concrete syntax for a concept, formula, or sequent; reparses to obj."""
    if isinstance(obj, Sequent):
        succ = _text(obj.succedent)
        if not obj.antecedent:
            return "|- " + succ
        return " ; ".join(sorted(map(_text, obj.antecedent))) + " |- " + succ
    return _text(obj)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_SECTIONS = ("theory", "assume", "goal")


def _code_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, code before any '#') of each line of text that has
    code; lines end at the lexer's line ends only."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        code = raw.split("#", 1)[0]
        if code.strip(_SPACE):
            yield lineno, code


def parse_problem(text: str) -> Problem:
    """Parse a problem file with ``theory:``/``assume:``/``goal:`` sections."""
    sections: dict[str, list[Formula]] = {name: [] for name in _SECTIONS}
    current: Optional[str] = None
    for lineno, code in _code_lines(text):
        line = code.strip(_SPACE)
        header = line[:-1].strip(_SPACE) if line.endswith(":") else None
        if header in _SECTIONS:
            current = header
            continue
        if current is None:
            raise ParseError("formula before any section header",
                             lineno, 1, {"theory:", "assume:", "goal:"})
        f = _parse_line(parse_formula, code, lineno)
        if current == "theory" and isinstance(f, ConceptF) and not isinstance(f.concept, Subs):
            raise ParseError("theory members must be subsumptions or assertions", lineno, 1)
        sections[current].append(f)
    goals = sections["goal"]
    if len(goals) != 1:
        raise ParseError(f"expected exactly one goal formula, found {len(goals)}",
                         text[:-1].count("\n") + 1, 1)
    return Problem(tuple(sections["theory"]), tuple(sections["assume"]), goals[0])


def _parse_line(parse, code: str, lineno: int, start: int = 0):
    """parse(code) stripped of the lexer's whitespace, for a piece of line
    lineno that begins at column start + 1; an error is placed on that line,
    the end of input at the end of the piece."""
    text = code.strip(_SPACE)
    try:
        return parse(text)
    except ParseError as e:
        col = e.col + len(code) - len(code.lstrip(_SPACE)) if e.col <= len(text) else len(code) + 1
        raise ParseError(e.args[0], lineno, start + col, e.expected) from None
