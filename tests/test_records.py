"""The record contract: every public record type is an immutable tuple
with the constructor, defaults, repr and value semantics it had as a
frozen dataclass; importing the CLI generates no dataclass code."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ialc import hilbert, sequent, syntax
from ialc.modelgen import Signature
from ialc.semantics import ValidationReport, Violation
from ialc.syntax import Problem, Sequent, parse_concept, parse_formula

SRC = Path(__file__).resolve().parent.parent / "src"

A = parse_formula("A")
S = Sequent(frozenset({A}), A)
FA = "ConceptF(concept=Atom(name='A'))"
SA = f"Sequent(antecedent=frozenset({{{FA}}}), succedent={FA})"
NO_PARAMS = "RuleParams(principal=None, role=None, nominal=None, prefix=None, cut_formula=None)"

# (record built with keywords, the repr it had as a frozen dataclass)
RECORDS = [
    (Sequent(antecedent=frozenset({A}), succedent=A), SA),
    (Problem(theory=(), assumptions=(A,), goal=A),
     f"Problem(theory=(), assumptions=({FA},), goal={FA})"),
    (Violation(kind="F1", witnesses=("R", 0, 1, 2)), "Violation(kind='F1', witnesses=('R', 0, 1, 2))"),
    (ValidationReport(violations=(Violation("reflexivity", (0,)),)),
     "ValidationReport(violations=(Violation(kind='reflexivity', witnesses=(0,)),))"),
    (Signature(atoms=("A",), roles=("R",), nominals=("x",), max_worlds=3),
     "Signature(atoms=('A',), roles=('R',), nominals=('x',), max_worlds=3)"),
    (sequent.RuleParams(principal=A, role="R", nominal="y", prefix="x", cut_formula=A),
     f"RuleParams(principal={FA}, role='R', nominal='y', prefix='x', cut_formula={FA})"),
    (sequent.ProofTree(conclusion=S, rule="axiom", params=sequent.RuleParams(), premises=()),
     f"ProofTree(conclusion={SA}, rule='axiom', params={NO_PARAMS}, premises=())"),
    (sequent.CheckResult(ok=False, path=(0, 1), reason="bad"),
     "CheckResult(ok=False, path=(0, 1), reason='bad')"),
    (sequent.ProveResult(tree=None, visited=3, cache_hits=1, loop_prunes=2, budget="depth"),
     "ProveResult(tree=None, visited=3, cache_hits=1, loop_prunes=2, budget='depth', "
     "committed=0)"),
    (hilbert.Axiom(name="ipl a1", subst=(("C", parse_concept("A")),)),
     "Axiom(name='ipl a1', subst=(('C', Atom(name='A')),))"),
    (hilbert.Axiom(name="ik 4", subst=(("R", "S"),)), "Axiom(name='ik 4', subst=(('R', 'S'),))"),
    (hilbert.ModusPonens(i=1, j=2), "ModusPonens(i=1, j=2)"),
    (hilbert.Necessitation(i=1, role="R"), "Necessitation(i=1, role='R')"),
    (hilbert.ProofLine(concept=parse_concept("A"), justification=hilbert.ModusPonens(1, 2)),
     "ProofLine(concept=Atom(name='A'), justification=ModusPonens(i=1, j=2))"),
    (hilbert.HilbertProof(lines=()), "HilbertProof(lines=())"),
    (hilbert.CheckResult(ok=False, line=2, reason="bad"),
     "CheckResult(ok=False, line=2, reason='bad')"),
]
IDS = [type(r).__module__.rsplit(".", 1)[1] + "." + type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_positional_construction_equals_keyword_and_hashes_alike(record, text):
    again = type(record)(*record)
    assert again == record and hash(again) == hash(record)
    assert type(record)(**record._asdict()) == record


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_records_are_immutable(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_defaults():
    assert Signature() == Signature((), (), (), 2)
    assert sequent.RuleParams() == sequent.RuleParams(None, None, None, None, None)
    tree = sequent.ProofTree(S, "axiom")
    assert tree.params == sequent.RuleParams() and tree.premises == ()
    assert sequent.CheckResult(True) == (True, None, None)
    assert sequent.ProveResult(None, 3)[2:] == (0, 0, None, 0)
    assert hilbert.CheckResult(True)[1:] == (None, None)


def test_methods_and_text():
    assert str(sequent.CheckResult(True)) == str(hilbert.CheckResult(True)) == "accepted"
    assert str(sequent.CheckResult(False, (0, 1), "bad")) == "rejected at node 0.1: bad"
    assert str(hilbert.CheckResult(False, 2, "bad")) == "rejected at line 2: bad"
    assert str(Violation("F1", ("R", 0, 1, 2))) == "F1('R', 0, 1, 2)"
    assert ValidationReport(()).ok and str(ValidationReport(())) == "ok"
    assert not sequent.ProveResult(None, 3).proved
    assert Problem((), (A,), A).sequent() == S == Sequent.make([A], A)
    assert S.with_extra(parse_formula("B")).antecedent == {A, parse_formula("B")}


def test_replace_and_asdict():
    params = sequent.RuleParams(role="R")
    assert params._replace(role=None) == sequent.RuleParams()
    assert params._asdict() == {"principal": None, "role": "R", "nominal": None,
                                "prefix": None, "cut_formula": None}


def test_equal_fields_compare_equal_across_record_classes():
    # records are tuples: only the field values take part in equality
    assert sequent.CheckResult(True) == hilbert.CheckResult(True)


def test_signature_validates_every_construction():
    for bad in ({"max_worlds": 0}, {"max_worlds": 6}, {"atoms": ("A", "A")},
                {"roles": ("R", "R")}, {"nominals": ("x", "x")}):
        with pytest.raises(ValueError):
            Signature(**bad)
    with pytest.raises(ValueError, match="max_worlds must be at least 1"):
        Signature()._replace(max_worlds=0)
    with pytest.raises(ValueError, match="max_worlds must be at most 5"):
        Signature()._replace(max_worlds=6)
    with pytest.raises(ValueError, match="duplicate atom names"):
        Signature(("A", "A"))


def test_nodes_raise_the_own_frozen_error():
    assert issubclass(syntax.FrozenInstanceError, AttributeError)
    with pytest.raises(syntax.FrozenInstanceError):
        parse_concept("A").name = "B"


def test_cli_import_generates_no_dataclass_code():
    # -S: no site hooks, which may import these modules themselves
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ialc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
