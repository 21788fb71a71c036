import copy
import json
import pickle
import random
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import schema_instance_corpus
from ialc import syntax
from ialc.modelgen import Signature, signature_for
from ialc.syntax import (
    And, Atom, BOT, Bot, Concept, ConceptF, Exists, Forall, Formula, NominalAssertion, Not, Or,
    MAX_NESTING, ParseError, RoleAssertion, Sequent, Subs, TOP, Top, outer_nominal,
    parse_concept, parse_formula, parse_problem, parse_sequent, render,
    atoms_of, nominals_of, roles_of, substitute,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")


# ---------------------------------------------------------------------------
# Parsing: pinned examples
# ---------------------------------------------------------------------------

def test_parse_constants():
    assert parse_formula("top") == ConceptF(TOP)
    assert parse_formula("bot") == ConceptF(BOT)


def test_parse_boxed_subsumption():
    assert parse_formula("all R.(A -> B)") == ConceptF(Forall("R", Subs(A, B)))


def test_parse_nested_assertion():
    f = parse_formula("x : (y : A)")
    assert f == NominalAssertion("x", NominalAssertion("y", ConceptF(A)))


def test_parse_role_assertion():
    assert parse_formula("R(x,y)") == RoleAssertion("x", "R", "y")


def test_parse_sequent_axiom1_root():
    s = parse_sequent("all R.(A -> B) |- some R.A -> some R.B")
    assert s.antecedent == frozenset({ConceptF(Forall("R", Subs(A, B)))})
    assert s.succedent == ConceptF(Subs(Exists("R", A), Exists("R", B)))


def test_parse_sequent_bot_and_identity():
    s = parse_sequent("x:bot |- A")
    assert s.antecedent == frozenset({NominalAssertion("x", ConceptF(BOT))})
    assert s.succedent == ConceptF(A)
    ident = parse_sequent("A |- A")
    assert ident.antecedent == frozenset({ConceptF(A)})
    assert ident.succedent == ConceptF(A)


def test_sequent_antecedent_deduplicates():
    assert parse_sequent("A ; A |- A") == parse_sequent("A |- A")


def test_empty_antecedent():
    s = parse_sequent("|- A | not A")
    assert s.antecedent == frozenset()


def test_precedence():
    assert parse_concept("not A & B") == And(Not(A), B)
    assert parse_concept("A & B | C") == Or(And(A, B), C)
    assert parse_concept("A | B -> C") == Subs(Or(A, B), C)
    assert parse_concept("A -> B -> C") == Subs(A, Subs(B, C))
    assert parse_concept("A & B & C") == And(And(A, B), C)
    assert parse_concept("some R.A & B") == And(Exists("R", A), B)
    assert parse_concept("all R.not A") == Forall("R", Not(A))


def test_render_examples():
    assert render(Forall("R", Subs(A, B))) == "all R.(A -> B)"
    assert render(Subs(Exists("R", A), Forall("R", B))) == "some R.A -> all R.B"
    assert render(And(A, Or(B, C))) == "A & (B | C)"


def test_outer_nominal():
    assert outer_nominal(parse_formula("x : (y : A)")) == "x"
    assert outer_nominal(parse_formula("x : A")) == "x"
    assert outer_nominal(parse_formula("A & B")) is None
    assert outer_nominal(parse_formula("R(x,y)")) is None


def test_assertion_body_cannot_be_role_assertion():
    with pytest.raises(ValueError):
        NominalAssertion("x", RoleAssertion("y", "R", "z"))


def test_symbol_collectors():
    s = parse_sequent("x : some R.(A & B) ; S(y,z) |- all R.C")
    assert atoms_of(s) == {"A", "B", "C"}
    assert roles_of(s) == {"R", "S"}
    assert nominals_of(s) == {"x", "y", "z"}


def _walk_reference(obj, inner=(Concept, Formula)):
    """The recursive walk: one generator per level, parents first."""
    if isinstance(obj, Sequent):
        for m in (*obj.antecedent, obj.succedent):
            yield from _walk_reference(m, inner)
        return
    yield obj
    for child in obj.fields:
        if isinstance(child, inner):
            yield from _walk_reference(child, inner)


def test_walk_matches_the_recursive_reference():
    sequents = schema_instance_corpus(20, seed=11) + [parse_sequent(t) for t in (
        "x : (y : some R.A) ; R(x,y) ; all S.(B -> C) |- z : (x : not A | B)",
        "x : some R.(A & B) ; S(y,z) |- all R.C",
        "|- top",
    )]
    members = [m for s in sequents for m in (*s.antecedent, s.succedent)]
    concepts = [m.concept for m in members if isinstance(m, ConceptF)]
    for obj in sequents + members + concepts:
        for inner in ((Concept, Formula), Formula):
            assert list(syntax._walk(obj, inner)) == list(_walk_reference(obj, inner)), obj
    with pytest.raises(TypeError):
        list(syntax._walk(Sequent.make(["A"], ConceptF(A))))


def test_a_tree_deeper_than_the_recursion_limit_walks():
    depth = 3000
    assert sys.getrecursionlimit() < depth
    chain = Exists("R", B)
    for _ in range(depth):
        chain = Not(chain)
    s = Sequent.make([NominalAssertion("x", ConceptF(chain)), RoleAssertion("x", "S", "y")],
                     ConceptF(chain))
    assert sum(1 for _ in syntax._walk(s)) == 2 * depth + 8
    assert atoms_of(s) == {"B"} and roles_of(s) == {"R", "S"} and nominals_of(s) == {"x", "y"}
    assert signature_for(s, 2) == Signature(("B",), ("R", "S"), ("x", "y"), 2)


def test_substitute_is_simultaneous_and_typed():
    S = parse_sequent
    s = S("x : some R.(A & B) ; R(x,y) ; S(y,z) |- y : all R.(B -> not A | top)")
    swapped = substitute(s, {"A": B, "B": A, "R": "S", "S": "R", "x": "y", "y": "x"})
    assert swapped == S("y : some S.(B & A) ; S(y,x) ; R(x,z) |- x : all S.(A -> not B | top)")
    # an atom takes only a concept, a role or nominal only a name
    assert substitute(S("A |- some R.A"), {"R": A, "A": "R"}) == S("A |- some R.A")
    assert substitute(S("R |- some R.R"), {"R": "S"}) == S("R |- some S.R")
    # unnamed symbols and constants are kept, the constants as themselves
    assert substitute(parse_concept("C & top | bot"), {"A": B}) == parse_concept("C & top | bot")
    assert substitute(TOP, {"A": B}) is TOP
    assert substitute(parse_formula("A -> C"), {"A": parse_concept("A -> C"), "C": A}) == \
        parse_formula("(A -> C) -> A")


# ---------------------------------------------------------------------------
# Errors carry positions
# ---------------------------------------------------------------------------

MALFORMED = [
    "",
    "A &",
    "& A",
    "some R A",
    "some r.A",
    "x : : A",
    "(A",
    "A -> ",
    "R(x y)",
    "R(X,y)",
    "|-",
    "A ; |- B",
    "A |- ",
    "A @ B",
    "not",
    "x :",
    "all .A",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_positioned_errors(text):
    for entry in (parse_formula, parse_sequent):
        with pytest.raises(ParseError) as exc:
            entry(text)
        assert exc.value.line >= 1
        assert exc.value.col >= 1


DEEP = [
    "not " * 3000 + "A",
    "(" * 3000 + "A" + ")" * 3000,
    "A -> " * 3000 + "A",
    "A & " * 3000 + "A",
    "all R." * 3000 + "A",
    "x : (" * 3000 + "A" + ")" * 3000,
]


@pytest.mark.parametrize("text", DEEP)
def test_nesting_is_bounded(text):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert "nested deeper" in str(exc.value) and exc.value.col > 1


def test_nesting_just_below_the_bound_parses():
    c = parse_concept("not " * (MAX_NESTING - 1) + "A")
    assert parse_concept(render(c)) == c


@pytest.mark.parametrize("text", [
    "(A) & " * 60 + "A", "not A & " * 60 + "A", "some R.A & " * 60 + "A",
], ids=["parenthesized", "not", "some"])
def test_closed_items_in_a_chain_do_not_stack_nesting(text):
    # AST depth 61: each item's own level ends with the item
    c = parse_concept(text)
    assert parse_concept(render(c)) == c


def test_error_reports_expected_set():
    with pytest.raises(ParseError) as exc:
        parse_concept("some R,A")
    assert exc.value.expected == {"'.'"}
    assert "1:7" in str(exc.value)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

_atoms = st.sampled_from(["A", "B", "C'", "Long_Name"])
_roles = st.sampled_from(["R", "S1"])
_nominals = st.sampled_from(["x", "y", "z'"])

_concepts = st.recursive(
    st.one_of(st.builds(Atom, _atoms), st.just(TOP), st.just(BOT)),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Subs, inner, inner),
        st.builds(Exists, _roles, inner),
        st.builds(Forall, _roles, inner),
    ),
    max_leaves=30,
)

_formulas = st.one_of(
    st.builds(ConceptF, _concepts),
    st.builds(RoleAssertion, _nominals, _roles, _nominals),
    st.builds(NominalAssertion, _nominals, st.builds(ConceptF, _concepts)),
    st.builds(NominalAssertion, _nominals,
              st.builds(NominalAssertion, _nominals, st.builds(ConceptF, _concepts))),
)


@settings(max_examples=300)
@given(_concepts)
def test_concept_roundtrip(c):
    assert parse_concept(render(c)) == c


@settings(max_examples=300)
@given(_formulas)
def test_formula_roundtrip(f):
    assert parse_formula(render(f)) == f


@settings(max_examples=150)
@given(st.frozensets(_formulas, max_size=4), _formulas)
def test_sequent_roundtrip(ant, succ):
    s = Sequent(ant, succ)
    assert parse_sequent(render(s)) == s


# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------

def test_equal_nodes_are_one_object():
    assert Atom("A") is Atom("A") and Top() is TOP and Bot() is BOT
    f = NominalAssertion("x", ConceptF(Subs(A, Not(B))))
    assert f is NominalAssertion("x", ConceptF(Subs(Atom("A"), Not(Atom("B")))))
    assert And(A, B) is not And(B, A) and And(A, B) is not Or(A, B)
    assert f.fields == ("x", ConceptF(Subs(A, Not(B)))) and TOP.fields == ()


@settings(max_examples=200)
@given(_concepts, _formulas)
def test_reparsed_text_is_the_node(c, f):
    assert parse_concept(render(c)) is c
    assert parse_formula(render(f)) is f


def test_nodes_are_immutable():
    c = Subs(A, B)
    for name in ("left", "fields", "_text", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, A)
    with pytest.raises(AttributeError):
        del c.left
    assert c.fields == (A, B) and c.left is A and render(c) == "A -> B"


def test_copies_and_pickles_are_the_interned_node():
    for node in (Subs(A, Not(B)), TOP, RoleAssertion("x", "R", "y"),
                 NominalAssertion("x", NominalAssertion("y", ConceptF(Exists("R", A))))):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_threads_building_the_same_nodes_get_one_object():
    def build(seed, out):
        rng = random.Random(seed)
        names = [f"T{i}" for i in range(300)]
        rng.shuffle(names)
        out.extend((n, NominalAssertion("t", ConceptF(And(Atom(n), Not(Atom(n)))))) for n in names)

    results = [[] for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i, out)) for i, out in enumerate(results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = dict(results[0])
    assert all(len(out) == 300 and all(first[n] is f for n, f in out) for out in results)


def test_node_repr_and_construction_errors():
    assert repr(Exists("R", A)) == "Exists(role='R', body=Atom(name='A'))"
    assert repr(NominalAssertion("x", ConceptF(TOP))) == \
        "NominalAssertion(nominal='x', body=ConceptF(concept=Top()))"
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        And(A)
    with pytest.raises(ValueError):
        NominalAssertion("x", RoleAssertion("x", "R", "y"))
    with pytest.raises(TypeError):
        NominalAssertion("x", A)


def test_printer_never_needs_extra_parens():
    # right-assoc arrow and left-assoc lattice operators stay minimal
    assert render(parse_concept("A -> B -> C")) == "A -> B -> C"
    assert render(parse_concept("(A -> B) -> C")) == "(A -> B) -> C"
    assert render(parse_concept("A & (B & C)")) == "A & (B & C)"
    assert render(parse_concept("(A & B) & C")) == "A & B & C"


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

PROBLEM = """
# a comment
theory:
  A -> B        # trailing comment
  R(a,b)
assume:
  x : A
goal:
  x : B
"""


def test_parse_problem():
    p = parse_problem(PROBLEM)
    assert p.theory == (ConceptF(Subs(A, B)), RoleAssertion("a", "R", "b"))
    assert p.assumptions == (NominalAssertion("x", ConceptF(A)),)
    assert p.goal == NominalAssertion("x", ConceptF(B))
    s = p.sequent()
    assert len(s.antecedent) == 3 and s.succedent == p.goal


def test_problem_rejects_non_subsumption_theory():
    with pytest.raises(ParseError) as exc:
        parse_problem("theory:\n  A & B\ngoal:\n  A\n")
    assert exc.value.line == 2


def test_problem_requires_one_goal():
    with pytest.raises(ParseError):
        parse_problem("assume:\n  A\n")
    with pytest.raises(ParseError):
        parse_problem("goal:\n  A\n  B\n")


def test_problem_formula_before_header():
    with pytest.raises(ParseError) as exc:
        parse_problem("A -> B\ngoal:\n  A\n")
    assert exc.value.line == 1


def test_problem_reports_formula_line():
    with pytest.raises(ParseError) as exc:
        parse_problem("goal:\n  A &&& B\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("text,line,col", [
    ("goal:\n  A &&& B\n", 2, 6),
    ("goal:\n    A & \n", 2, 9),
    ("goal:\n    A &   # the rest is a comment\n", 2, 11),
    ("goal:\n\t  A @ B\n", 2, 6),
    ("theory:\n  A -> B\ngoal:\n  x : (A -> \n", 4, 13),
    ("goal:\n  " + "not " * 101 + "A\n", 2, 407),
    # lines end at newlines only, and only the lexer's whitespace is stripped
    ("goal:\n  A -> A\xa0\n", 2, 9),
    ("goal:\n  A\x0c -> A\n", 2, 4),
    ("goal:\n  A\x0b -> A\u2028\n", 2, 4),
])
def test_problem_errors_report_raw_line_columns(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_problem_lines_end_at_newlines_only():
    with pytest.raises(ParseError) as exc:
        parse_problem("goal:\n  A -> A\xa0\n")
    assert str(exc.value) == "2:9: unexpected character '\\xa0'"
    with pytest.raises(ParseError) as exc:
        parse_problem("goal:\n  A\x0c -> A\n")
    assert str(exc.value) == "2:4: unexpected character '\\x0c'"
    # CRLF line ends still parse, and a missing goal is placed on the last line
    assert parse_problem(PROBLEM.replace("\n", "\r\n")) == parse_problem(PROBLEM)
    for text, line in (("assume:\n  A\n", 2), ("assume:\r\n  A", 2), ("", 1), ("\n\n", 2)):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert exc.value.line == line, text


# ---------------------------------------------------------------------------
# Differential test against the previous parser
# ---------------------------------------------------------------------------
# The tokenizer and parser below are the previous implementation, kept
# verbatim (only the entry points are renamed ref_*) as the reference
# that the flat-token parser must reproduce: the same AST, or the same
# ParseError with the same message, line, column and expected set.

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


def ref_parse_concept(text: str) -> Concept:
    p = _Parser(text)
    c = p.concept()
    p.eof()
    return c


def ref_parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.eof()
    return f


def ref_parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    s = p.sequent()
    p.eof()
    return s


ENTRIES = [(parse_concept, ref_parse_concept), (parse_formula, ref_parse_formula),
           (parse_sequent, ref_parse_sequent)]


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as e:
        return "error", (e.args[0], e.line, e.col, e.expected)


def assert_same_as_reference(text):
    for parse, ref_parse in ENTRIES:
        assert _outcome(parse, text) == _outcome(ref_parse, text), (parse.__name__, text)


# pieces of well-formed input, so that many strings parse or fail late
_PIECES = ["A", "B", "C'", "top", "bot", "not", "some R.", "all S1.", "(", ")", "&", "|",
           "->", "x :", "y :", "R(x,y)", "x : (", ";", "|-"]
# every token kind, identifiers of both classes, and tokens that glue
# together when no space separates them ("|" "-", "A" "B")
_TOKENS = ["|-", "->", "&", "|", ":", ";", ",", ".", "(", ")", "-", ">", "top", "bot",
           "not", "some", "all", "A", "R", "S1", "Long_Name", "x", "_n0", "z'", "topx", "Not"]
# layout, comments and characters that start no token
_ODD = ["@", "1", "'", "é", "\f", "#c", "# x : A\n", "\n", "\r\n", "\t"]
_SEPARATORS = [" "] * 6 + ["", "", "  ", "\n"]


def _random_token_string(rng):
    out = []
    for _ in range(rng.randint(0, 16)):
        r = rng.random()
        out.append(rng.choice(_PIECES if r < 0.75 else _TOKENS if r < 0.97 else _ODD))
        out.append(rng.choice(_SEPARATORS))
    return "".join(out)


@pytest.mark.parametrize("seed", range(10))
def test_parser_matches_reference_on_random_token_strings(seed):
    rng = random.Random(seed)
    for _ in range(5_000):
        assert_same_as_reference(_random_token_string(rng))


def _random_concept(rng, size):
    if size <= 1:
        return rng.choice([A, B, Atom("C'"), TOP, BOT])
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_concept(rng, size - 1))
    if kind < 3:
        return rng.choice([Exists, Forall])(rng.choice(["R", "S1"]), _random_concept(rng, size - 1))
    k = rng.randint(1, size - 1)
    return rng.choice([And, Or, Subs])(_random_concept(rng, k), _random_concept(rng, size - k))


def _random_formula(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return RoleAssertion(rng.choice("xy"), "R", rng.choice("xy"))
    body = ConceptF(_random_concept(rng, rng.randint(1, 8)))
    if kind == 1:
        return body
    if kind == 3:
        body = NominalAssertion(rng.choice("xy"), body)
    return NominalAssertion(rng.choice("xy"), body)


@pytest.mark.parametrize("seed", range(3))
def test_parser_matches_reference_on_rendered_asts(seed):
    """Renders of random sequents, as they are and with one token dropped,
    repeated or swapped for another, so that errors occur deep inside."""
    rng = random.Random(100 + seed)
    for _ in range(300):
        s = Sequent.make([_random_formula(rng) for _ in range(rng.randint(0, 3))],
                         _random_formula(rng))
        texts = [render(s), render(s.succedent)]
        if isinstance(s.succedent, ConceptF):
            texts.append(render(s.succedent.concept))
        for text in list(texts):
            toks = text.split(" ")
            j = rng.randrange(len(toks))
            texts.append(" ".join(toks[:j] + toks[j + 1:]))
            texts.append(" ".join(toks[:j] + [toks[j]] + toks[j:]))
            texts.append(" ".join(toks[:j] + [rng.choice(_TOKENS)] + toks[j + 1:]))
        for text in texts:
            assert_same_as_reference(text)


@pytest.mark.parametrize("text", DEEP + [
    "not " * 99 + "A",
    "(" * 99 + "A" + ")" * 99,
    "not A | " * 60 + "A",
    "x : (" * 99 + "A" + ")" * 99,
    "A ; " * 3000 + "|- A",
])
def test_parser_matches_reference_on_deep_inputs(text):
    assert_same_as_reference(text)


# ---------------------------------------------------------------------------
# The table of parsed texts never changes an answer
# ---------------------------------------------------------------------------
# _untabled_parse is syntax._parse without the table of parsed texts, kept
# verbatim as the reference; it parses a sequent text whole.

def _untabled_parse(text: str, rule):
    p = syntax._Parser(text)
    result = rule(p)
    if p.toks[p.i]:
        raise p.error({"end of input"})
    return result


_RULES = [(parse_concept, syntax._Parser.concept), (parse_formula, syntax._Parser.formula),
          (parse_sequent, syntax._Parser.sequent)]
_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def _answer(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as e:
        return "error", (e.args[0], e.line, e.col, e.expected)


def _problem_texts(text: str) -> list:
    """The member texts of a problem file and the sequent text they make."""
    sections, current = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line[:-1] in ("theory", "assume", "goal") and line.endswith(":"):
            current = sections.setdefault(line[:-1], [])
        elif line:
            current.append(line)
    members = sections.get("theory", []) + sections.get("assume", [])
    return members + sections["goal"] + [" ; ".join(members) + " |- " + sections["goal"][0]]


def _pool_texts() -> list:
    with open(_POOL / "eval.json") as fh:
        texts = [text for entry in json.load(fh) for _, text in entry["queries"]]
    with open(_POOL / "prove.json") as fh:
        texts += [t for entry in json.load(fh) for t in _problem_texts(entry["text"])]
    with open(_POOL / "hilbert.json") as fh:
        for entry in json.load(fh):
            for line in entry["text"].splitlines():
                texts += [line.split(" ; ")[0], *re.findall(r":= ([^,\]]*)", line)]
    return texts


_LAYOUT = [" ", "\t", "\r\n", "\n", "   ", " \t ", "\r\n\t"]
# whitespace to Python's str.strip that the lexer does not skip
_NOT_LAYOUT = ["\x0c", "\x0b", "\xa0", "\u2028"]


def _respaced(rng, text: str) -> str:
    """text with each space replaced by tabs, CR/LF or a run of spaces, and
    layout added at both ends; one in ten spaces or ends gets a character
    that only str.strip takes for whitespace."""
    def gap():
        return rng.choice(_NOT_LAYOUT if rng.random() < 0.1 else _LAYOUT)
    return gap() + "".join(gap() if ch == " " else ch for ch in text) + gap()


def _assert_table_keeps_answers(texts):
    for text in texts:
        for parse, rule in _RULES:
            want = _answer(_untabled_parse, text, rule)
            for call in ("first", "repeated"):
                got = _answer(parse, text)
                assert got == want, (parse.__name__, call, text)
                if got[0] == "ok" and not isinstance(want[1], Sequent):
                    assert got[1] is want[1]
                elif got[0] == "ok":
                    assert got[1].succedent is want[1].succedent
                    assert sorted(map(id, got[1].antecedent)) == sorted(map(id, want[1].antecedent))
            if want[0] == "error":      # only what parsed is kept
                assert (rule, text) not in syntax._PARSED


def test_parse_table_keeps_answers_on_pool_texts():
    texts = _pool_texts()
    assert len(texts) > 3_000
    _assert_table_keeps_answers(texts)


def test_parse_table_keeps_answers_on_malformed_and_deep_inputs():
    _assert_table_keeps_answers(MALFORMED + DEEP + ["A ; " * 3000 + "|- A"])


@pytest.mark.parametrize("seed", range(3))
def test_parse_table_keeps_answers_on_respaced_sequents(seed):
    rng = random.Random(300 + seed)
    texts = []
    for _ in range(300):
        s = Sequent.make([_random_formula(rng) for _ in range(rng.randint(0, 4))],
                         _random_formula(rng))
        texts += [_respaced(rng, render(s)), _respaced(rng, render(s.succedent))]
    _assert_table_keeps_answers(texts)


# ---------------------------------------------------------------------------
# Differential test against the previous printer
# ---------------------------------------------------------------------------
# The printer below is the previous implementation, kept verbatim (only
# render is renamed ref_render, in its recursive calls too) as the
# reference that the table-driven printer must reproduce character for
# character.

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


def ref_render(obj: Union[Concept, Formula, Sequent]) -> str:
    """Concrete syntax for a concept, formula, or sequent; reparses to obj."""
    if isinstance(obj, Concept):
        return _render_concept(obj, 0)
    if isinstance(obj, ConceptF):
        return _render_concept(obj.concept, 0)
    if isinstance(obj, RoleAssertion):
        return f"{obj.role}({obj.subject},{obj.object})"
    if isinstance(obj, NominalAssertion):
        if isinstance(obj.body, NominalAssertion):
            return f"{obj.nominal} : ({ref_render(obj.body)})"
        # parenthesize binary bodies for readability: x : (A -> B)
        return f"{obj.nominal} : " + _render_concept(obj.body.concept, _PREC_UNARY)
    if isinstance(obj, Sequent):
        succ = ref_render(obj.succedent)
        if not obj.antecedent:
            return "|- " + succ
        members = sorted(ref_render(m) for m in obj.antecedent)
        return " ; ".join(members) + " |- " + succ
    raise TypeError(f"cannot render {obj!r}")


def _fresh_constants(c: Concept) -> Concept:
    """c rebuilt through its constructors, top and bot leaves included;
    hash-consing returns the very nodes of c."""
    if isinstance(c, (Top, Bot)):
        return type(c)()
    return type(c)(*(_fresh_constants(v) if isinstance(v, Concept) else v
                     for v in c.fields))


def assert_renders_as_reference(obj):
    assert render(obj) == ref_render(obj), obj


@settings(max_examples=300)
@given(_concepts, _formulas, st.frozensets(_formulas, max_size=4))
def test_render_matches_reference_on_generated_asts(c, f, ant):
    fresh = _fresh_constants(c)
    for obj in (c, fresh, ConceptF(fresh), NominalAssertion("x", ConceptF(fresh)),
                f, Sequent(ant, f)):
        assert_renders_as_reference(obj)


@pytest.mark.parametrize("seed", range(3))
def test_render_matches_reference_on_random_asts(seed):
    rng = random.Random(200 + seed)
    for obj in (Top(), Bot(), Not(Top()), Or(Bot(), Subs(Top(), Bot()))):
        assert_renders_as_reference(obj)
    for _ in range(1_000):
        c = _random_concept(rng, rng.randint(1, 30))
        fresh = _fresh_constants(c)
        s = Sequent.make([_random_formula(rng) for _ in range(rng.randint(0, 3))],
                         _random_formula(rng))
        for obj in (c, fresh, ConceptF(fresh), NominalAssertion("y", ConceptF(fresh)),
                    NominalAssertion("x", NominalAssertion("y", ConceptF(fresh))), s):
            assert_renders_as_reference(obj)


@pytest.mark.parametrize("obj", [Concept(), ConceptF(Concept()), 42, None])
def test_render_rejects_what_the_reference_rejects(obj):
    for r in (render, ref_render):
        with pytest.raises(TypeError):
            r(obj)
