"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from ialc.cli import run
from ialc.hilbert import AXIOM_ROOTS, HilbertProof, ProofLine, check_hilbert_proof, instance
from ialc.modelgen import Signature, random_model
from ialc.semantics import extension, load_model, sequent_valid
from ialc.sequent import (
    ProofTree, RULE_LABELS, check_proof, load_proof, prove,
)
from ialc.syntax import (
    Atom, BOT, ConceptF, Exists, NominalAssertion, Not, Or, ParseError,
    RoleAssertion, Subs, TOP, parse_formula, parse_sequent, render,
)
from corpus import random_concept, schema_instance_corpus
from test_hilbert import identity_proof


def _paths(tree, path=()):
    yield path
    for i, child in enumerate(tree.premises):
        yield from _paths(child, path + (i,))


def _relabel(tree, path, label):
    if not path:
        return ProofTree(tree.conclusion, label, tree.params, tree.premises)
    premises = list(tree.premises)
    premises[path[0]] = _relabel(premises[path[0]], path[1:], label)
    return ProofTree(tree.conclusion, tree.rule, tree.params, tuple(premises))


def _rule_at(tree, path):
    for i in path:
        tree = tree.premises[i]
    return tree.rule


def test_criterion_1_golden_corpus(golden_dir):
    start = time.monotonic()
    trees = {}
    for i in range(1, 6):
        trees[i] = load_proof(str(golden_dir / f"axiom{i}.prf"))
        assert check_proof(trees[i]).ok, f"axiom{i} not accepted"
        assert trees[i].conclusion == parse_sequent(AXIOM_ROOTS[i])
    mutations = 0
    for i, tree in trees.items():
        for path in _paths(tree):
            original = _rule_at(tree, path)
            for label in RULE_LABELS:
                if label == original:
                    continue
                mutations += 1
                assert not check_proof(_relabel(tree, path, label)).ok, \
                    (i, path, label)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"golden corpus took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: five derivation files accepted, "
          f"{mutations} label mutations rejected in {elapsed:.2f}s")


def test_criterion_2_prover_reproduces_the_derivations():
    times = []
    for i in sorted(AXIOM_ROOTS):
        goal = parse_sequent(AXIOM_ROOTS[i])
        start = time.monotonic()
        result = prove(goal, max_depth=16)
        elapsed = time.monotonic() - start
        assert result.proved, f"axiom {i} not proved at depth 16"
        assert result.tree.conclusion == goal
        assert check_proof(result.tree).ok
        assert elapsed < 1.0, f"axiom {i} took {elapsed:.2f}s"
        times.append(elapsed)
    print(f"\nPASS criterion 2: all five roots proved at depth <= 16, "
          f"slowest {max(times):.3f}s, every tree re-checked")


def test_criterion_3_executable_soundness(two_world_models_nominals):
    start = time.monotonic()
    corpus = schema_instance_corpus(per_axiom=6, seed=2024)
    assert len(corpus) >= 30
    proved = []
    for s in corpus:
        result = prove(s, max_depth=16)
        assert result.proved, render(s)
        assert check_proof(result.tree).ok
        proved.append(s)
    checks = 0
    for s in proved:
        for I in two_world_models_nominals:
            assert sequent_valid(I, s), f"{render(s)} fails on {I}"
            checks += 1
    sig3 = Signature(atoms=("A", "B"), roles=("R",), nominals=("x", "y"),
                     max_worlds=3)
    samples = [random_model(sig3, seed) for seed in range(1000)]
    for s in proved:
        for I in samples:
            assert sequent_valid(I, s), f"{render(s)} fails on {I}"
            checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: {len(proved)} proved sequents, "
          f"{checks} model checks ({len(two_world_models_nominals)} exhaustive "
          f"+ 1000 sampled), zero violations in {elapsed:.1f}s")


@pytest.mark.parametrize("problem,goal", [
    ("lem.ialc", "|- A | not A"),
    ("dne.ialc", "|- (not not A) -> A"),
])
def test_criterion_4_intuitionistic_discrimination(tmp_path, capsys,
                                                   golden_dir, problem, goal):
    model_path = tmp_path / "counter.model"
    rc = run(["countermodel", str(golden_dir / problem),
              "--max-worlds", "2", "--emit-model", str(model_path)])
    assert rc == 1, "expected a countermodel"
    rc = run(["eval", "--model", str(model_path), "--sequent", goal])
    assert rc == 1, "eval must confirm invalidity"
    model, _ = load_model(str(model_path))
    assert len(model.worlds) <= 2
    assert not sequent_valid(model, parse_sequent(goal))
    result = prove(parse_sequent(goal), max_depth=24)
    assert not result.proved, "cut-free search must not prove this"
    capsys.readouterr()
    print(f"\nPASS criterion 4: {goal!r} refuted by a {len(model.worlds)}-world "
          f"model and unknown at depth 24")


def test_criterion_5_semantic_identities(two_world_models):
    rng = random.Random(55)
    A, B = Atom("A"), Atom("B")
    checks = 0

    def identity_holds(I, c, d):
        nonlocal checks
        assert extension(I, Exists("R", BOT)) == frozenset()
        lhs = extension(I, Exists("R", Or(c, d)))
        rhs = extension(I, Exists("R", c)) | extension(I, Exists("R", d))
        assert lhs == rhs, (render(c), render(d))
        checks += 1

    for I in two_world_models:
        identity_holds(I, A, B)
    for seed in range(500):
        n = 3 + seed % 2
        I = random_model(Signature(atoms=("A", "B"), roles=("R",),
                                   max_worlds=n), seed)
        identity_holds(I, A, B)
        identity_holds(I,
                       random_concept(rng, ("A", "B"), ("R",), 2),
                       random_concept(rng, ("A", "B"), ("R",), 2))
    print(f"\nPASS criterion 5: existential bottom and union identities hold "
          f"in {checks} model checks, zero violations")


def test_criterion_6_heredity_and_definability():
    rng = random.Random(66)
    pool = [random_model(Signature(atoms=("A", "B"), roles=("R",),
                                   max_worlds=3 + i % 2), 9000 + i)
            for i in range(500)]
    trials = 0
    while trials < 10_000:
        I = pool[trials % len(pool)]
        c = random_concept(rng, ("A", "B"), ("R",), 4)
        w, v = rng.choice(sorted(I.leq, key=repr))
        ext = extension(I, c)
        assert not (w in ext and v not in ext), (render(c), w, v)
        assert extension(I, Not(c)) == extension(I, Subs(c, BOT))
        assert extension(I, TOP) == extension(I, Not(BOT))
        trials += 1
    print(f"\nPASS criterion 6: {trials} heredity trials and the negation/"
          f"top definability identities, zero violations")


def test_criterion_7_hilbert_soundness(two_world_models):
    rng = random.Random(77)
    pool = [{"C": random_concept(rng, ("A", "B"), ("R",), 2),
             "D": random_concept(rng, ("A", "B"), ("R",), 2),
             "R": "R"} for _ in range(50)]
    checks = 0
    for axiom in range(1, 6):
        for subst in pool:
            inst = instance(f"ik {axiom}", subst)
            for I in two_world_models:
                assert extension(I, inst) == frozenset(I.worlds), \
                    (axiom, render(inst))
                checks += 1
    proof = identity_proof(Atom("A"), "R")
    assert check_hilbert_proof(proof).ok
    for k in range(len(proof.lines)):
        lines = list(proof.lines)
        lines[k] = ProofLine(Atom("Zmut"), lines[k].justification)
        verdict = check_hilbert_proof(HilbertProof(tuple(lines)))
        assert not verdict.ok and verdict.line <= k + 1
    print(f"\nPASS criterion 7: 5 axiom schemata x 50 substitutions valid in "
          f"every small model ({checks} checks); identity proof accepted and "
          f"all {len(proof.lines)} line mutations rejected")


def _random_formula(rng, depth):
    roll = rng.random()
    if roll < 0.55:
        return ConceptF(random_concept(rng, ("A", "B", "C'"), ("R", "S"), depth))
    if roll < 0.7:
        return RoleAssertion(rng.choice(["x", "y", "z'"]),
                             rng.choice(["R", "S"]),
                             rng.choice(["x", "y", "z'"]))
    body = ConceptF(random_concept(rng, ("A", "B", "C'"), ("R", "S"), depth - 1))
    if roll < 0.8:
        body = NominalAssertion(rng.choice(["x", "y"]), body)
    return NominalAssertion(rng.choice(["x", "y", "z'"]), body)


MALFORMED = [
    "", "A &", "& A", "some R A", "some r.A", "x : : A", "(A", "A -> ",
    "R(x y)", "R(X,y)", "|-", "A ; |- B", "A |- ", "A @ B", "not",
    "x :", "all .A", "x : (y : )", "A -> -> B", "((A)", "A))",
]


def test_criterion_8_parser_roundtrip():
    rng = random.Random(88)
    for i in range(1000):
        f = _random_formula(rng, rng.randint(0, 6))
        assert parse_formula(render(f)) == f, render(f)
    for text in MALFORMED:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.line >= 1 and exc.value.col >= 1
    # fuzzing valid strings must never raise anything but ParseError
    seeds = [render(_random_formula(rng, 3)) for _ in range(60)]
    fuzzed = 0
    for base in seeds:
        for _ in range(5):
            chars = list(base)
            op = rng.random()
            pos = rng.randrange(len(chars))
            if op < 0.4:
                del chars[pos]
            elif op < 0.8:
                chars.insert(pos, rng.choice("()&|->:;.xA "))
            else:
                chars[pos] = rng.choice("()&|->:;.xA ")
            text = "".join(chars)
            try:
                parse_formula(text)
            except ParseError as e:
                assert e.line >= 1 and e.col >= 1
            fuzzed += 1
    print(f"\nPASS criterion 8: 1000 round trips, {len(MALFORMED)} malformed "
          f"inputs with positioned errors, {fuzzed} fuzzed variants without "
          f"crashes")
