import hashlib
import json
import random
from pathlib import Path

import pytest

from ialc.cli import run
from ialc.hilbert import (
    AXIOM_ROOTS, Axiom, HilbertProof, ModusPonens, Necessitation, ProofLine, SCHEMATA,
    SchemaError, check_hilbert_proof, instance, parse_hilbert_proof,
)
from ialc.semantics import extension
from ialc.syntax import (
    And, Atom, BOT, Concept, ConceptF, Exists, Forall, NominalAssertion, Not, Or, ParseError,
    Sequent, Subs, parse_concept, parse_sequent,
)
from corpus import random_concept

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "hilbert.json"

A, B = Atom("A"), Atom("B")


def identity_proof(c: Concept, role: str) -> HilbertProof:
    """Machine-built derivation of ``all role.(c -> c)`` from a1/a2 via
    modus ponens, closed by necessitation."""
    cc = Subs(c, c)
    axioms = (("ipl a1", {"C": c, "D": c}), ("ipl a1", {"C": c, "D": cc}),
              ("ipl a2", {"C": c, "D": cc, "E": c}))
    return HilbertProof((
        *(ProofLine(instance(a, b), Axiom(a, tuple(b.items()))) for a, b in axioms),
        ProofLine(Subs(Subs(c, cc), cc), ModusPonens(2, 3)),
        ProofLine(cc, ModusPonens(1, 4)),
        ProofLine(Forall(role, cc), Necessitation(5, role))))


# ---------------------------------------------------------------------------
# Schema instantiation
# ---------------------------------------------------------------------------

def test_axiom_4_instance():
    assert instance("ik 4", {"R": "R"}) == Subs(Exists("R", BOT), BOT)


def test_axiom_5_instance():
    got = instance("ik 5", {"C": A, "D": B, "R": "R"})
    assert got == parse_concept("(some R.A -> all R.B) -> all R.(A -> B)")


def test_axiom_1_reflexive_instance():
    got = instance("ik 1", {"C": A, "D": A, "R": "R"})
    assert got == Subs(Forall("R", Subs(A, A)),
                       Subs(Forall("R", A), Forall("R", A)))


def test_axiom_2_uses_box_prefix():
    got = instance("ik 2", {"C": A, "D": B, "R": "R"})
    assert got == parse_concept("all R.(A -> B) -> (some R.A -> some R.B)")


def test_negation_schemata():
    assert instance("ipl a10", {"C": A}) == Subs(Not(A), Subs(A, BOT))
    assert instance("ipl a11", {"C": A}) == Subs(Subs(A, BOT), Not(A))


def test_missing_binding_is_distinguished():
    with pytest.raises(SchemaError):
        instance("ik 1", {"C": A, "R": "R"})
    with pytest.raises(SchemaError):
        instance("ik 4", {"C": A})
    for name in ("ik 9", "ipl zz", "ik 04", "a1", "ipl  a1"):
        with pytest.raises(SchemaError, match=f"^unknown schema {name!r}$"):
            instance(name, {"C": A, "R": "R"})


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

def test_two_line_nec_proof():
    l1 = ProofLine(instance("ipl a1", {"C": A, "D": B}),
                   Axiom("ipl a1", (("C", A), ("D", B))))
    l2 = ProofLine(Forall("R", l1.concept), Necessitation(1, "R"))
    assert check_hilbert_proof(HilbertProof((l1, l2))).ok


def test_identity_proof_accepted():
    p = identity_proof(A, "R")
    assert p.lines[-1].concept == Forall("R", Subs(A, A))
    assert check_hilbert_proof(p).ok


def test_mp_must_match_implication():
    l1 = ProofLine(instance("ipl a1", {"C": A, "D": B}),
                   Axiom("ipl a1", (("C", A), ("D", B))))
    l2 = ProofLine(instance("ipl a9", {"C": A}), Axiom("ipl a9", (("C", A),)))
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


def test_unknown_justification_is_rejected():
    ok = ProofLine(instance("ipl a9", {"C": A}), Axiom("ipl a9", (("C", A),)))
    r = check_hilbert_proof(HilbertProof((ok, ProofLine(A, ("lemma", 1)))))
    assert (r.ok, r.line, r.reason) == (False, 2, "unknown justification ('lemma', 1)")


def test_pool_answers_are_pinned(golden_dir):
    """The checker's verdict, first bad line and reason on every proof file of
    the benchmark's Hilbert pool and on golden/identity.hpf."""
    cases = [(e["id"], e["text"], e["ref"]["accepted"]) for e in json.loads(POOL.read_text())]
    cases.append(("identity.hpf", (golden_dir / "identity.hpf").read_text(), True))
    rows = []
    for name, text, accepted in cases:
        r = check_hilbert_proof(parse_hilbert_proof(text))
        assert r.ok == accepted, name
        rows.append([name, r.ok, r.line, r.reason])
    assert (len(rows), sum(ok for _, ok, _, _ in rows)) == (81, 41)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "5f0be1d629bee503b4ef64c67c3ff5f37ab12a4cfaee71997f84a72191793431")


@pytest.mark.parametrize("just,reason", [
    ("ipl a99 [C := A]", "unknown schema 'ipl a99'"),
    ("ik 04 [R := R]", "unknown schema 'ik 04'"),
    ("ik 9", "unknown schema 'ik 9'"),
    ("ipl  a1 \t[C := A, D := A]", None),     # the name's spaces collapse to one
    ("ik\t4 [R := R]", "stated concept is not the schema instance some R.bot -> bot"),
])
def test_schema_names_in_files(just, reason):
    r = check_hilbert_proof(parse_hilbert_proof(f"A -> (A -> A) ; {just}\n"))
    assert (r.ok, r.reason) == (reason is None, reason)


# root i of AXIOM_ROOTS is this schema's instance with C := A, D := B
ROOT_SCHEMA = {1: "ik 2", 2: "ik 1", 3: "ik 4", 4: "ik 3", 5: "ik 5"}


@pytest.mark.parametrize("i", sorted(AXIOM_ROOTS))
def test_axiom_roots_are_schema_instances(i):
    inst = instance(ROOT_SCHEMA[i], {"C": A, "D": B, "R": "R"})
    if i in (3, 5):             # |- x : schema
        want = Sequent.make([], NominalAssertion("x", ConceptF(inst)))
    else:                       # split at the top-level ->; root 4 sits under x :
        wrap = (lambda c: NominalAssertion("x", ConceptF(c))) if i == 4 else ConceptF
        want = Sequent.make([wrap(inst.left)], wrap(inst.right))
    assert parse_sequent(AXIOM_ROOTS[i]) == want


def test_golden_file_parses_to_the_built_proof(golden_dir):
    # ipl bindings, modus ponens and necessitation, each read from the file
    text = (golden_dir / "identity.hpf").read_text()
    assert parse_hilbert_proof(text) == identity_proof(A, "R")


def test_file_parse_examples():
    text = """
    # comment line
    some R.bot -> bot ; ik 4 [R := R]
    all R.(some R.bot -> bot) ; nec 1 R
    """
    p = parse_hilbert_proof(text)
    assert len(p.lines) == 2
    assert p.lines[0].justification == Axiom("ik 4", (("R", "R"),))
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
    # a binding without ':=', an empty binding and a bad justification
    ("A -> A ; ipl a1 [C := A, D B]\n", 1, 26),
    ("A -> A ; ipl a1 [C := A, D := B,]\n", 1, 33),
    ("A -> A ; ipl A1 [C := A]\n", 1, 10),
    # a binding's name is a metavariable name: an uppercase identifier
    ("A -> A ; ipl a1 [C := A, D := B,  := top]\n", 1, 35),
    ("A -> A ; ipl a1 [C := A, d x := B]\n", 1, 26),
    # lines end at newlines only, and only the lexer's whitespace is stripped
    ("some R.bot -> bot\xa0; ik 4 [R := R]\n", 1, 18),
    ("some R.bot -> bot ; ik 4 [R := R]\n  A\x0c -> A ; mp 1 1\n", 2, 4),
    ("some R.bot -> bot ; ik 4 [R := R\xa0]\n", 1, 32),
    ("some R.bot -> bot ; ik\xa04 [R := R]\n", 1, 21),
    ("A -> A ; mp 1\u20032\n", 1, 10),
    ("A -> A ; nec \u0661 R\n", 1, 10),
])
def test_file_errors_report_raw_line_columns(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_hilbert_proof(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("binding,name", [("D := B,  := top", ""), ("d x := B", "d x")])
def test_binding_name_must_be_a_metavariable_name(binding, name, tmp_path, capsys):
    path = tmp_path / "badname.hpf"
    path.write_text(f"A -> (B -> A) ; ipl a1 [C := A, {binding}]\n")
    assert run(["check", str(path)]) == 3
    assert f"bad metavariable name {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text,name", [
    ("A -> (B -> A) ; ipl a1 [C := A, D := B, X := top]\n", "X"),
    ("some R.bot -> bot ; ik 4 [R := R, C := A]\n", "C"),
])
def test_binding_the_schema_does_not_use_is_rejected(text, name, tmp_path, capsys):
    r = check_hilbert_proof(parse_hilbert_proof(text))
    assert (r.ok, r.line, r.reason) == (False, 1, f"the schema has no metavariable {name}")
    path = tmp_path / "unused.hpf"
    path.write_text(text)
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"rejected at line 1: {r.reason}\n"


# ---------------------------------------------------------------------------
# Reference differential: schema instances against the tree walk that
# instantiated them before syntax.substitute
# ---------------------------------------------------------------------------
# _ref_instantiate below is that implementation, kept verbatim but for its
# name; _ref_instance looks its template up by schema name.  Equal instances
# and equal SchemaError messages are required.

def _ref_instantiate(template, subst):
    if isinstance(template, Atom):
        try:
            value = subst[template.name]
        except KeyError:
            raise SchemaError(f"missing binding for metavariable {template.name}") from None
        if not isinstance(value, Concept):
            raise SchemaError(f"metavariable {template.name} needs a concept, got {value!r}")
        return value
    if isinstance(template, Not):
        return Not(_ref_instantiate(template.body, subst))
    if isinstance(template, (And, Or, Subs)):
        cls = type(template)
        return cls(_ref_instantiate(template.left, subst), _ref_instantiate(template.right, subst))
    if isinstance(template, (Exists, Forall)):
        try:
            role = subst[template.role]
        except KeyError:
            raise SchemaError(f"missing binding for role metavariable {template.role}") from None
        if not isinstance(role, str):
            raise SchemaError(f"role metavariable {template.role} needs a role name")
        return type(template)(role, _ref_instantiate(template.body, subst))
    return template           # top / bot


def _ref_instance(name, subst):
    if name not in SCHEMATA:
        raise SchemaError(f"unknown schema {name!r}")
    return _ref_instantiate(SCHEMATA[name], subst)


def _outcome(fn, key, subst):
    try:
        return fn(key, subst)
    except SchemaError as e:
        return f"SchemaError: {e}"


def _random_binding(rng):
    """A binding value: mostly a concept over the metavariables themselves
    (C := D -> C), else a role name, a nominal or an integer."""
    roll = rng.random()
    if roll < 0.7:
        return random_concept(rng, ("A", "C", "D", "E", "R"), ("R", "S"), rng.randint(0, 2))
    return "S" if roll < 0.8 else "R" if roll < 0.9 else rng.choice(["x", 3])


def test_schema_instances_match_the_reference_walk():
    rng = random.Random(2026)
    names = list(SCHEMATA)
    assert len(names) == 16
    outcomes = []
    for n in range(2000):
        key = names[n % 16]
        # each name is left out (missing), bound to a value of either kind
        # (mistyped or not), or bound but unused by the schema (extra)
        subst = {name: _random_binding(rng) for name in ("C", "D", "E", "R", "X")
                 if rng.random() < 0.85}
        if rng.random() < 0.5:      # a well-typed binding of every metavariable
            subst.update({name: random_concept(rng, ("A", "C", "D"), ("R",), 2)
                          for name in "CDE"}, R=rng.choice("RS"))
        want = _outcome(_ref_instance, key, subst)
        assert _outcome(instance, key, subst) == want, (key, subst)
        outcomes.append(want)
    errors = [o for o in outcomes if isinstance(o, str)]
    assert len(errors) < len(outcomes) - 500
    for text in ("missing binding for metavariable", "missing binding for role metavariable",
                 "needs a concept, got", "needs a role name"):
        assert any(text in e for e in errors), text
    # a replacement is not substituted again
    dc = Subs(Atom("D"), Atom("C"))
    assert instance("ipl a1", {"C": dc, "D": A}) == Subs(dc, Subs(A, dc))


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
            inst = instance(f"ik {ik}", subst)
            for I in two_world_models[::3]:
                assert extension(I, inst) == frozenset(I.worlds)


def test_propositional_schemata_valid_on_all_small_models(two_world_models):
    rng = random.Random(4)
    for schema in [name for name in SCHEMATA if name.startswith("ipl ")]:
        for _ in range(4):
            subst = {"C": random_concept(rng, ("A", "B"), ("R",), 2),
                     "D": random_concept(rng, ("A", "B"), ("R",), 2),
                     "E": random_concept(rng, ("A", "B"), ("R",), 2)}
            inst = instance(schema, subst)
            for I in two_world_models[::3]:
                assert extension(I, inst) == frozenset(I.worlds)
