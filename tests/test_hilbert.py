import random

import pytest

from ialc.corpus import random_concept
from ialc.hilbert import (
    HilbertProof, IkAx, IplAx, IPL_SCHEMATA, ModusPonens, Necessitation,
    ProofLine, SchemaError, axiom_instance, check_hilbert_proof,
    identity_proof, ipl_instance, parse_hilbert_proof, render_hilbert_proof,
)
from ialc.semantics import extension
from ialc.syntax import Atom, BOT, Exists, Forall, Not, ParseError, Subs, parse_concept

A, B = Atom("A"), Atom("B")


# ---------------------------------------------------------------------------
# Schema instantiation
# ---------------------------------------------------------------------------

def test_axiom_4_instance():
    assert axiom_instance(4, {"R": "R"}) == Subs(Exists("R", BOT), BOT)


def test_axiom_5_instance():
    got = axiom_instance(5, {"C": A, "D": B, "R": "R"})
    assert got == parse_concept("(some R.A -> all R.B) -> all R.(A -> B)")


def test_axiom_1_reflexive_instance():
    got = axiom_instance(1, {"C": A, "D": A, "R": "R"})
    assert got == Subs(Forall("R", Subs(A, A)),
                       Subs(Forall("R", A), Forall("R", A)))


def test_axiom_2_uses_box_prefix():
    got = axiom_instance(2, {"C": A, "D": B, "R": "R"})
    assert got == parse_concept("all R.(A -> B) -> (some R.A -> some R.B)")


def test_negation_schemata():
    assert ipl_instance("a10", {"C": A}) == Subs(Not(A), Subs(A, BOT))
    assert ipl_instance("a11", {"C": A}) == Subs(Subs(A, BOT), Not(A))


def test_missing_binding_is_distinguished():
    with pytest.raises(SchemaError):
        axiom_instance(1, {"C": A, "R": "R"})
    with pytest.raises(SchemaError):
        axiom_instance(4, {"C": A})
    with pytest.raises(SchemaError):
        axiom_instance(9, {"R": "R"})
    with pytest.raises(SchemaError):
        ipl_instance("zz", {"C": A})


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

def test_two_line_nec_proof():
    l1 = ProofLine(ipl_instance("a1", {"C": A, "D": B}),
                   IplAx("a1", (("C", A), ("D", B))))
    l2 = ProofLine(Forall("R", l1.concept), Necessitation(1, "R"))
    assert check_hilbert_proof(HilbertProof((l1, l2))).ok


def test_identity_proof_accepted():
    p = identity_proof(A, "R")
    assert p.lines[-1].concept == Forall("R", Subs(A, A))
    assert check_hilbert_proof(p).ok


def test_mp_must_match_implication():
    l1 = ProofLine(ipl_instance("a1", {"C": A, "D": B}),
                   IplAx("a1", (("C", A), ("D", B))))
    l2 = ProofLine(ipl_instance("a9", {"C": A}), IplAx("a9", (("C", A),)))
    bad = ProofLine(B, ModusPonens(1, 2))
    r = check_hilbert_proof(HilbertProof((l1, l2, bad)))
    assert not r.ok and r.line == 3


def test_rules_must_cite_earlier_lines():
    l1 = ProofLine(Forall("R", A), Necessitation(1, "R"))
    r = check_hilbert_proof(HilbertProof((l1,)))
    assert not r.ok and r.line == 1
    l1 = ProofLine(A, ModusPonens(1, 2))
    assert not check_hilbert_proof(HilbertProof((l1,))).ok


def test_single_line_mutations_rejected_at_or_before():
    p = identity_proof(A, "R")
    for k in range(len(p.lines)):
        lines = list(p.lines)
        lines[k] = ProofLine(Atom("Zfresh"), lines[k].justification)
        r = check_hilbert_proof(HilbertProof(tuple(lines)))
        assert not r.ok and r.line <= k + 1


def test_file_roundtrip():
    p = identity_proof(parse_concept("A & not B"), "S")
    text = render_hilbert_proof(p)
    assert parse_hilbert_proof(text) == p


def test_file_parse_examples():
    text = """
    # comment line
    some R.bot -> bot ; ik 4 [R := R]
    all R.(some R.bot -> bot) ; nec 1 R
    """
    p = parse_hilbert_proof(text)
    assert len(p.lines) == 2
    assert p.lines[0].justification == IkAx(4, (("R", "R"),))
    assert check_hilbert_proof(p).ok


@pytest.mark.parametrize("text,line,col", [
    ("A -> A ; mp 1 2\n    A & ; mp 1 2\n", 2, 9),
    ("    (A -> B ; ik 4 [R := R]\n", 1, 13),
    ("\tA @ B ; mp 1 2\n", 1, 4),
    # substitution values are placed on their own line and column
    ("A -> A ; mp 1 2\nA -> A ; ipl a1 [C := A &, D := B]\n", 2, 26),
    ("A -> A ; ipl a1 [C := A,  D :=  B @]\n", 1, 35),
    # a role value is one role name, and each metavariable is bound once
    ("some R.bot -> bot ; ik 4 [R := A -> B]\n", 1, 32),
    ("A -> A ; ipl a1 [C := A, D := B,  C := B]\n", 1, 35),
])
def test_file_errors_report_raw_line_columns(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_hilbert_proof(text)
    assert (exc.value.line, exc.value.col) == (line, col)


# ---------------------------------------------------------------------------
# Executable soundness of the schemata
# ---------------------------------------------------------------------------

def test_modal_schemata_valid_on_all_small_models(two_world_models):
    rng = random.Random(3)
    for ik in range(1, 6):
        for _ in range(6):
            subst = {"C": random_concept(rng, ("A", "B"), ("R",), 2),
                     "D": random_concept(rng, ("A", "B"), ("R",), 2),
                     "R": "R"}
            inst = axiom_instance(ik, subst)
            for I in two_world_models[::3]:
                assert extension(I, inst) == frozenset(I.worlds)


def test_propositional_schemata_valid_on_all_small_models(two_world_models):
    rng = random.Random(4)
    for schema in IPL_SCHEMATA:
        for _ in range(4):
            subst = {"C": random_concept(rng, ("A", "B"), ("R",), 2),
                     "D": random_concept(rng, ("A", "B"), ("R",), 2),
                     "E": random_concept(rng, ("A", "B"), ("R",), 2)}
            inst = ipl_instance(schema, subst)
            for I in two_world_models[::3]:
                assert extension(I, inst) == frozenset(I.worlds)
