import json
import random

import pytest

from ialc.hilbert import AXIOM_ROOTS
from ialc.sequent import (
    ProofTree, RULE_LABELS, check_proof, load_proof, tree_to_dict,
)
from ialc.syntax import (
    Atom, BOT, ConceptF, Exists, Forall, NominalAssertion, Or, Sequent, Subs, parse_sequent,
)
from corpus import axiom_root_sequent, random_concept, schema_instance_corpus


def test_all_five_trees_accepted(golden_trees):
    for i, t in golden_trees.items():
        assert check_proof(t).ok, i


def test_roots_are_the_published_sequents(golden_trees):
    for i, t in golden_trees.items():
        assert t.conclusion == parse_sequent(AXIOM_ROOTS[i])


def test_tree_shapes(golden_trees):
    def rules_of(t):
        yield t.rule
        for c in t.premises:
            yield from rules_of(c)
    assert list(rules_of(golden_trees[1])) == ["sub-r", "p-exists", "sub-l",
                                               "axiom", "axiom"]
    assert list(rules_of(golden_trees[2])) == ["sub-r", "p-forall", "sub-l",
                                               "axiom", "axiom"]
    assert list(rules_of(golden_trees[3])) == ["n-sub-r", "exists-l", "bot-l"]
    assert "n-or-l" in set(rules_of(golden_trees[4]))
    assert list(rules_of(golden_trees[5])) == [
        "n-sub-r", "forall-r", "n-sub-r", "n-sub-l",
        "exists-r", "axiom", "axiom", "forall-l", "axiom"]


def _paths(tree, path=()):
    yield path
    for i, c in enumerate(tree.premises):
        yield from _paths(c, path + (i,))


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


def test_every_single_label_mutation_rejected(golden_trees):
    for i, tree in golden_trees.items():
        for path in _paths(tree):
            original = _rule_at(tree, path)
            for label in RULE_LABELS:
                if label == original:
                    continue
                mutated = _relabel(tree, path, label)
                assert not check_proof(mutated).ok, (i, path, label)


def test_steps_check_without_params_too(golden_trees):
    # params only narrow the instantiation search; inference alone must
    # validate every golden node
    from ialc.sequent import check_step

    def walk(t):
        yield t
        for c in t.premises:
            yield from walk(c)

    for i, tree in golden_trees.items():
        for node in walk(tree):
            assert check_step(node.rule, None,
                              [c.conclusion for c in node.premises],
                              node.conclusion), (i, node.rule)


def test_repository_files_match_generated_trees(golden_dir):
    # each committed file is in the canonical form save_proof writes
    for i in range(1, 6):
        path = golden_dir / f"axiom{i}.prf"
        tree = load_proof(str(path))
        assert json.loads(path.read_text()) == tree_to_dict(tree), path
        assert check_proof(tree).ok


# ---------------------------------------------------------------------------
# Reference differential: the corpus against the hand-built roots it used
# before the roots were substituted into
# ---------------------------------------------------------------------------
# _ref_axiom_root_sequent is that implementation, kept verbatim but for its
# name; the reference corpus is schema_instance_corpus over it.

def _ref_axiom_root_sequent(i, alpha, beta, role="R", nominal="x"):
    """Root sequent of the i-th axiom derivation, with alpha/beta
    substituted for the schematic concepts."""
    ex, fa = Exists(role, alpha), Forall(role, alpha)
    exb, fab = Exists(role, beta), Forall(role, beta)
    if i == 1:
        return Sequent.make([ConceptF(Forall(role, Subs(alpha, beta)))],
                            ConceptF(Subs(ex, exb)))
    if i == 2:
        return Sequent.make([ConceptF(Forall(role, Subs(alpha, beta)))],
                            ConceptF(Subs(fa, fab)))
    if i == 3:
        return Sequent.make(
            [], NominalAssertion(nominal, ConceptF(Subs(Exists(role, BOT), BOT))))
    if i == 4:
        return Sequent.make(
            [NominalAssertion(nominal, ConceptF(Exists(role, Or(alpha, beta))))],
            NominalAssertion(nominal, ConceptF(Or(ex, exb))))
    if i == 5:
        return Sequent.make(
            [], NominalAssertion(nominal, ConceptF(
                Subs(Subs(ex, fab), Forall(role, Subs(alpha, beta))))))
    raise ValueError(f"axiom index {i} out of range")


def _ref_schema_instance_corpus(per_axiom, seed, atoms=("A", "B"), roles=("R",), depth=2):
    rng = random.Random(seed)
    out = [_ref_axiom_root_sequent(i, Atom("A"), Atom("B")) for i in range(1, 6)]
    for i in range(1, 6):
        for _ in range(per_axiom):
            alpha = random_concept(rng, atoms, roles, depth)
            beta = random_concept(rng, atoms, roles, depth)
            out.append(_ref_axiom_root_sequent(i, alpha, beta))
    return out


@pytest.mark.parametrize("per_axiom", [1, 4, 6])
def test_corpus_matches_the_hand_built_roots(per_axiom):
    for seed in range(30):
        want = _ref_schema_instance_corpus(per_axiom, seed)
        assert schema_instance_corpus(per_axiom, seed) == want, seed
    # a concept that mentions A or B is not substituted into again
    swap = axiom_root_sequent(1, Atom("B"), Atom("A"))
    assert swap == parse_sequent("all R.(B -> A) |- some R.B -> some R.A")
    assert swap == _ref_axiom_root_sequent(1, Atom("B"), Atom("A"))
