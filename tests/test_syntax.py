import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialc.syntax import (
    And, Atom, BOT, ConceptF, Exists, Forall, NominalAssertion, Not, Or,
    MAX_NESTING, ParseError, RoleAssertion, Sequent, Subs, TOP, outer_nominal,
    parse_concept, parse_formula, parse_problem, parse_sequent, render,
    atoms_of, nominals_of, roles_of,
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


@pytest.mark.parametrize("text", [
    "not " * 3000 + "A",
    "(" * 3000 + "A" + ")" * 3000,
    "A -> " * 3000 + "A",
    "A & " * 3000 + "A",
    "all R." * 3000 + "A",
    "x : (" * 3000 + "A" + ")" * 3000,
])
def test_nesting_is_bounded(text):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert "nested deeper" in str(exc.value) and exc.value.col > 1


def test_nesting_just_below_the_bound_parses():
    c = parse_concept("not " * (MAX_NESTING - 1) + "A")
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
