"""The rule table against the previous checker, and rule by rule against
the semantics."""

import random

import pytest

from ialc.modelgen import Signature, enumerate_models
from ialc.semantics import sequent_valid
from ialc.sequent import (
    RULE_LABELS, RuleParams, _RULES, _Search, _shape, check_step, prove,
)
from ialc.syntax import (
    And, ConceptF, Exists, Forall, NominalAssertion, Or, RoleAssertion,
    Sequent, Subs, nominals_of, render,
)
from corpus import random_concept, schema_instance_corpus
from ref_sequent import ref_check_step
from test_prover import _random_sequent


def _walk(t):
    yield t
    for c in t.premises:
        yield from _walk(c)


# ---------------------------------------------------------------------------
# Differential test against the previous checker
# ---------------------------------------------------------------------------

def _narrowed(rule, params, premises, conclusion) -> bool:
    """The two steps the rule table rejects although the previous checker
    accepted them."""
    # a stated role that contradicts the quantifier, which was ignored
    if rule in ("exists-r", "exists-l", "forall-l") and params is not None and params.role:
        return check_step(rule, params._replace(role=None), premises, conclusion)
    # a p-nom step whose premise is its conclusion, with a bare concept in
    # the antecedent: no antecedent lifted by p-nom has one
    return (rule == "p-nom" and list(premises) == [conclusion]
            and any(isinstance(m, ConceptF) for m in conclusion.antecedent))


def assert_agrees_with_reference(rule, params, premises, conclusion) -> bool:
    """The new verdict, after checking it against the reference, with the
    stated params and without: never an accept the reference rejects, and
    a reject the reference accepts only for a _narrowed step."""
    for p in (None, params):
        new = check_step(rule, p, premises, conclusion)
        old = ref_check_step(rule, p, premises, conclusion)
        where = (rule, p, [render(s) for s in premises], render(conclusion))
        assert new == old or (old and _narrowed(rule, p, premises, conclusion)), where
    return new


def test_checker_matches_reference_on_golden_nodes_and_their_relabellings(golden_trees):
    for tree in golden_trees.values():
        for node in _walk(tree):
            premises = [c.conclusion for c in node.premises]
            accepted = [label for label in RULE_LABELS
                        if assert_agrees_with_reference(label, node.params, premises,
                                                        node.conclusion)]
            assert accepted == [node.rule]


@pytest.fixture(scope="module")
def emitted_proofs():
    """Every proof the search emits on the schema instances and on the
    seeded random sequents of the prover tests."""
    proofs = [prove(s, max_depth=16).tree for s in schema_instance_corpus(per_axiom=4, seed=11)]
    rng = random.Random(2718)
    proofs += [prove(_random_sequent(rng), max_depth=10, max_visited=5000).tree
               for _ in range(300)]
    return [t for t in proofs if t is not None]


def test_checker_matches_reference_on_emitted_proofs(emitted_proofs):
    nodes = 0
    for tree in emitted_proofs:
        for node in _walk(tree):
            nodes += 1
            assert assert_agrees_with_reference(
                node.rule, node.params, [c.conclusion for c in node.premises], node.conclusion)
    assert nodes > 300


def _candidate_steps(proofs) -> list:
    """Every step the search tries on a node of the proofs or on a premise
    of such a step, as (rule, params, premises, conclusion)."""
    steps, seen = [], set()
    todo = [(node.conclusion, 1) for tree in proofs for node in _walk(tree)]
    while todo:
        seq, further = todo.pop()
        if seq in seen:
            continue
        seen.add(seq)
        members = sorted(seq.antecedent, key=render)
        for rule, params, premises in _Search(seq, 1)._candidates(seq, members):
            steps.append((rule, params, list(premises), seq))
            todo += [(p, further - 1) for p in premises if further]
    return steps


def _edit(rng, seq: Sequent, pool: list) -> Sequent:
    """seq with one antecedent member dropped or added, or its succedent swapped."""
    kind = rng.randrange(3)
    if kind == 0 and seq.antecedent:
        return Sequent(seq.antecedent - {rng.choice(sorted(seq.antecedent, key=render))},
                       seq.succedent)
    if kind == 1:
        return seq.with_extra(rng.choice(pool))
    return Sequent(seq.antecedent, rng.choice(pool))


def _mutant(rng, step, pool: list, roles=("R", "S")):
    """step with one edited sequent, another label, its premises reversed
    or replaced by its conclusion, or random params."""
    rule, params, premises, conclusion = step
    premises = list(premises)
    kind = rng.randrange(5)
    if kind == 0:
        i = rng.randrange(len(premises) + 1)
        if i == len(premises):
            conclusion = _edit(rng, conclusion, pool)
        else:
            premises[i] = _edit(rng, premises[i], pool)
    elif kind == 1:
        rule = rng.choice(RULE_LABELS)
    elif kind == 2 and len(premises) == 2:
        premises.reverse()
    elif kind == 3:
        premises = [conclusion] * len(premises)
    else:
        names = sorted(nominals_of(conclusion).union(*map(nominals_of, premises))) + ["w"]
        params = RuleParams(
            principal=rng.choice([None] + sorted(conclusion.antecedent, key=render) + pool[:3]),
            role=rng.choice((None,) + roles), nominal=rng.choice([None] + names),
            prefix=rng.choice([None] + names))
    return rule, params, premises, conclusion


def test_checker_matches_reference_on_mutated_search_steps(emitted_proofs):
    steps = _candidate_steps(emitted_proofs)
    # the checker reads the search's own choices back off its premises
    for step in steps:
        assert assert_agrees_with_reference(*step), step
    rng = random.Random(4242)
    mutants = accepted = 0
    for step in steps:
        rule, params, premises, conclusion = step
        pool = sorted({*conclusion.antecedent, conclusion.succedent,
                       *(f for p in premises for f in (*p.antecedent, p.succedent))}, key=render)
        for _ in range(6):
            mutant = _mutant(rng, step, pool)
            accepted += assert_agrees_with_reference(*mutant)
            mutants += 1
    assert mutants >= 10_000 and accepted >= 1_000, (mutants, accepted)


# ---------------------------------------------------------------------------
# Rule-level soundness
# ---------------------------------------------------------------------------

_NOMINALS = ("x", "y", "z")


@pytest.fixture(scope="module")
def family():
    """Every model of at most two worlds over atoms A/B, role R and the
    nominals x, y, z: 3,608 models."""
    return list(enumerate_models(Signature(("A", "B"), ("R",), _NOMINALS, 2)))


class _AnyChoice:
    """A chooser that proposes choices regardless of side conditions
    (any witness, any edge, random context splits, random unprefixing);
    check_step decides which of the instances are steps."""

    def __init__(self, rng):
        self.rng = rng

    def witnesses(self, seq):
        return _NOMINALS

    def edges(self, shapes):
        return [RoleAssertion(a, "R", b) for a in _NOMINALS for b in _NOMINALS]

    def contexts(self, seq, m, b):
        ant = sorted(seq.antecedent, key=render)
        return [tuple(frozenset(f for f in ant if self.rng.random() < 0.6) for _ in "lr")
                for _ in range(4)]

    def unprefixed(self, seq):
        succ = seq.succedent
        return [(x, frozenset(f.body if isinstance(f, NominalAssertion) and f.nominal == x
                              and isinstance(f.body, ConceptF) and self.rng.random() < 0.8
                              else f for f in seq.antecedent), delta)
                for x in _NOMINALS for delta in (succ, getattr(succ, "body", succ))]


def _formula(rng, base: list):
    """A member built from two shared base concepts, so that premises are
    often valid."""
    a, b = rng.choice(base), rng.choice(base)
    c = ConceptF(rng.choice([a, And(a, b), Or(a, b), Subs(a, b), Exists("R", a), Forall("R", a)]))
    roll = rng.random()
    if roll < 0.4:
        return c
    if roll < 0.6:
        return RoleAssertion(rng.choice(_NOMINALS[:2]), "R", rng.choice(_NOMINALS[:2]))
    return NominalAssertion(rng.choice(_NOMINALS[:2]), c)


def test_every_rule_preserves_validity_on_small_models(family):
    """For random steps check_step accepts, of every rule but cut and
    weaken: premises valid on the whole family make the conclusion valid
    on it.  Only steps whose premises are all valid are counted.

    Validity is read locally (tbox_global=False), which every rule
    preserves.  The global TBox reading is not preserved rule by rule:
    p-nom derives the invalid x : (A -> bot) ; x : some R.A |- R(x,y)
    from A -> bot ; x : some R.A |- R(x,y), valid only because A -> bot
    is read globally.  Local validity implies global validity, so
    checked proofs are sound under both."""
    def valid(s):
        return all(sequent_valid(I, s, tbox_global=False) for I in family)

    rng = random.Random(1)
    quota = 6
    live = dict.fromkeys(_RULES, 0)
    for _ in range(3000):
        base = [random_concept(rng, ("A", "B"), ("R",), rng.choice((0, 1))) for _ in "ab"]
        seq = Sequent.make([_formula(rng, base) for _ in range(rng.randint(0, 3))],
                           _formula(rng, base))
        shapes = [_shape(m) for m in seq.antecedent]
        for rule, (_, instances) in _RULES.items():
            if live[rule] >= quota:
                continue
            for label, params, premises in instances(seq, shapes, _AnyChoice(rng)):
                if check_step(label, params, premises, seq) and all(map(valid, premises)):
                    live[rule] += 1
                    assert valid(seq), (label, [render(p) for p in premises], render(seq))
                    break
        if min(live.values()) >= quota:
            break
    assert min(live.values()) >= quota, live
