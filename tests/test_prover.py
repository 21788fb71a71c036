import hashlib
import json
import random
from itertools import count
from pathlib import Path

import pytest

from ialc.hilbert import AXIOM_ROOTS
from ialc.modelgen import Signature, enumerate_models, signature_for
from ialc.semantics import sequent_valid
from ialc.sequent import (
    ProofTree, RuleParams, _Search, check_proof, find_countermodel, prove, tree_to_dict,
)
from ialc.syntax import (
    Atom, Bot, ConceptF, Exists, Forall, NominalAssertion, RoleAssertion, Sequent,
    _text, nominals_of, parse_problem, parse_sequent, render,
)
from corpus import random_concept, schema_instance_corpus
from ref_sequent import (
    _ENGINE_NOMINAL, _NO_PARAMS, _binary_candidates, _exists_l, _exists_r,
    _forall_l, _forall_r, _nom_concept, _nominals_in_order, _quantified,
    _rename_formula, _shape,
)

S = parse_sequent


# ---------------------------------------------------------------------------
# Proving
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("idx", sorted(AXIOM_ROOTS))
def test_axiom_roots_proved_and_self_certified(idx):
    goal = S(AXIOM_ROOTS[idx])
    result = prove(goal, max_depth=16)
    assert result.proved
    assert result.tree.conclusion == goal
    assert check_proof(result.tree).ok


PROVABLE = [
    "A |- A",
    "A & B |- A",
    "A & B |- B & A",
    "A |- B -> A",
    "A | A |- A",
    "all R.(A & B) |- all R.A & all R.B",
    "bot |- A",
    "x : bot |- y : A",
    "|- A -> A",
    "|- x : (A -> A)",
    "x : (A & B) |- x : A",
    "x : all R.A ; R(x,y) |- y : A",
    "R(x,y) ; y : A |- x : some R.A",
    "A -> B ; B -> C ; A |- C",
    # assertions ride through promotions even when they mention other roles
    "all R.(A -> B) ; S(x,y) |- all R.A -> all R.B",
    "x : A ; some R.B |- some R.(A -> B)",
    # the second A is tried after the first failed below its ancestor A | B
    # by a loop prune; that failure must not be reused without the ancestor
    "(A | B) -> A ; B |- (A | B) & (A & A)",
]


@pytest.mark.parametrize("text", PROVABLE)
def test_provable_sequents(text):
    goal = S(text)
    result = prove(goal, max_depth=16)
    assert result.proved, text
    assert check_proof(result.tree).ok
    assert result.tree.conclusion == goal


def test_semantic_oracle_confirms_the_boxed_conjunction(two_world_models):
    # checked against every small model before freezing it as provable
    goal = S("all R.(A & B) |- all R.A & all R.B")
    assert all(sequent_valid(I, goal) for I in two_world_models)
    assert prove(goal, max_depth=16).proved


UNPROVABLE = [
    "|- A | not A",
    "|- (not not A) -> A",
    "|- A",
    "A |- B",
    "A | B |- A & B",
    "x : some R.A |- x : all R.A",
    # promotions rewrite the whole context, so a foreign box blocks them:
    # semantically valid but honestly unknown to the cut-free search
    "all R.(A -> B) ; all S.C |- all R.A -> all R.B",
]


@pytest.mark.parametrize("text", UNPROVABLE)
def test_unprovable_sequents_return_unknown(text):
    result = prove(S(text), max_depth=24)
    assert not result.proved, text


def test_search_is_deterministic():
    goal = S(AXIOM_ROOTS[5])
    a = prove(goal, max_depth=16)
    b = prove(goal, max_depth=16)
    assert a.tree == b.tree and a.visited == b.visited


def test_search_never_emits_structural_rules():
    def rules_of(t):
        yield t.rule
        for c in t.premises:
            yield from rules_of(c)
    for idx in sorted(AXIOM_ROOTS):
        tree = prove(S(AXIOM_ROOTS[idx]), max_depth=16).tree
        used = set(rules_of(tree))
        assert "cut" not in used and "weaken" not in used


def test_visited_budget_returns_unknown():
    goal = S(AXIOM_ROOTS[5])
    assert not prove(goal, max_visited=2).proved
    assert prove(goal, max_depth=3).proved is False


def test_a_step_that_adds_nothing_is_not_tried():
    # forall-l would add y : A, which is there already: its premise is its
    # conclusion and would only be loop-pruned
    result = prove(S("x : all R.A ; R(x,y) ; y : A |- x : B"), max_depth=16)
    assert not result.proved and result.loop_prunes == 0


def test_fresh_nominals_avoid_user_names():
    goal = S("x : some R.A ; _n0 : B |- x : some R.A")
    result = prove(goal, max_depth=8)
    assert result.proved


@pytest.mark.parametrize("nom", ["_c0", "_d0", "_n0", "x"])
def test_canonical_names_avoid_user_names(nom):
    # the failure cache's canonical names for engine nominals must not
    # identify a sequent with one that mentions a user nominal so spelt
    goal = S(f"|- {nom} : ((some R.A -> all R.(some R.A & (A & bot))) "
             f"-> all R.(A -> some R.A & (A & bot)))")
    result = prove(goal)
    assert result.proved and result.visited == 21


def test_only_the_searchs_own_witnesses_are_renamed():
    # goal nominals spelt like witnesses stay in the key; the witness made
    # next skips them and is renamed
    root = S("_n0 : some R.A |- _n1 : some R.A")
    search = _Search(root, 10)
    assert search.normalize(root, sorted(root.antecedent, key=_text)) == root
    witness = search.fresh_nominal()
    assert witness == "_n2"
    seq = root.with_extra(NominalAssertion(witness, ConceptF(Atom("A"))))
    assert search.normalize(seq, sorted(seq.antecedent, key=_text)) == root.with_extra(
        NominalAssertion("#0", ConceptF(Atom("A"))))


# ---------------------------------------------------------------------------
# Countermodels
# ---------------------------------------------------------------------------

def test_countermodel_for_excluded_middle():
    s = S("|- A | not A")
    sig = signature_for(s, 2)
    model = find_countermodel(s, sig)
    assert model is not None
    assert not sequent_valid(model, s)
    # the enumeration oracle agrees this is the first counterexample
    first = next(I for I in enumerate_models(sig) if not sequent_valid(I, s))
    assert model == first
    # and it is the two-world chain with A upstairs
    assert len(model.worlds) == 2
    assert model.atoms["A"] != frozenset()


def test_countermodel_for_double_negation():
    s = S("|- (not not A) -> A")
    model = find_countermodel(s, signature_for(s, 2))
    assert model is not None and not sequent_valid(model, s)


def test_identity_has_no_countermodel():
    s = S("A |- A")
    assert find_countermodel(s, signature_for(s, 2)) is None
    assert find_countermodel(s, Signature(atoms=("A",), roles=("R",),
                                          max_worlds=3)) is None


def test_prove_and_refute_are_exclusive(two_world_models_nominals):
    corpus = schema_instance_corpus(per_axiom=2, seed=5)
    corpus += [S(t) for t in PROVABLE + UNPROVABLE]
    for s in corpus:
        result = prove(s, max_depth=16)
        counter = find_countermodel(s, signature_for(s, 2))
        assert not (result.proved and counter is not None), render(s)


def _random_formula(rng, depth):
    roll = rng.random()
    if roll < 0.55:
        return ConceptF(random_concept(rng, ("A", "B"), ("R",), depth))
    if roll < 0.7:
        return RoleAssertion(rng.choice(("x", "y")), "R",
                             rng.choice(("x", "y")))
    return NominalAssertion(rng.choice(("x", "y")),
                            ConceptF(random_concept(rng, ("A", "B"),
                                                    ("R",), depth)))


def _random_sequent(rng):
    ant = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
    return Sequent.make(ant, _random_formula(rng, 2))


def test_random_sequent_sweep_stays_sound():
    """Seeded adversarial sweep: everything the search proves must be
    valid in every small model of its own signature."""
    rng = random.Random(31337)
    proved = 0
    for _ in range(600):
        s = _random_sequent(rng)
        result = prove(s, max_depth=10, max_visited=5000)
        if not result.proved:
            continue
        proved += 1
        assert check_proof(result.tree).ok, render(s)
        for I in enumerate_models(signature_for(s, 2)):
            assert sequent_valid(I, s), render(s)
    assert proved >= 30   # the sweep must actually exercise the prover


# ---------------------------------------------------------------------------
# Differential test against the reference search
# ---------------------------------------------------------------------------

class _RefSearch:
    """The search before the loop-aware failure cache, kept verbatim as the
    reference: failures are cached only when no depth cut and no
    ancestor-loop pruning occurred underneath."""

    def __init__(self, root: Sequent, max_visited: int):
        self.max_visited = max_visited
        self.visited = 0
        self.exhausted = False
        self.failed: dict = {}
        self.used_nominals = set(nominals_of(root))
        self.counter = count()

    def fresh_nominal(self) -> str:
        while True:
            name = f"_n{next(self.counter)}"
            if name not in self.used_nominals:
                self.used_nominals.add(name)
                return name

    def normalize(self, seq: Sequent) -> Sequent:
        order: list = []
        scan = sorted(seq.antecedent, key=render) + [seq.succedent]
        for f in scan:
            for nom in _nominals_in_order(f):
                if _ENGINE_NOMINAL.match(nom) and nom not in order:
                    order.append(nom)
        if not order:
            return seq
        mapping = {n: f"_c{i}" for i, n in enumerate(order)}
        return Sequent(frozenset(_rename_formula(f, mapping) for f in seq.antecedent),
                       _rename_formula(seq.succedent, mapping))

    def prove(self, seq: Sequent, depth: int, ancestors: frozenset):
        if self.exhausted:
            return None, False
        key = self.normalize(seq)
        if key in ancestors:
            return None, False
        if self.failed.get(key, -1) >= depth:
            return None, True
        self.visited += 1
        if self.visited > self.max_visited:
            self.exhausted = True
            return None, False
        clean = True
        if depth > 0:
            inner = ancestors | {key}
            for rule, params, subgoals in self._candidates(seq):
                trees = []
                for sub in subgoals:
                    t, sub_clean = self.prove(sub, depth - 1, inner)
                    clean = clean and sub_clean
                    if t is None:
                        break
                    trees.append(t)
                else:
                    return ProofTree(seq, rule, params, tuple(trees)), True
        else:
            clean = False
        if clean:
            prev = self.failed.get(key, -1)
            if depth > prev:
                self.failed[key] = depth
        return None, clean

    def _candidates(self, seq: Sequent):
        ant, succ = seq.antecedent, seq.succedent
        if succ in ant:
            yield "axiom", _NO_PARAMS, ()
            return
        members = sorted(ant, key=render)
        shapes, goal = [_shape(m) for m in members], [_shape(succ)]
        if any(isinstance(c, Bot) for _, _, c in shapes):
            yield "bot-l", _NO_PARAMS, ()
            return

        yield from _binary_candidates(("and-l",), seq, shapes)

        for m, nominal, c in shapes:
            if nominal and isinstance(c, Exists):
                y = self.fresh_nominal()
                yield ("exists-l", RuleParams(principal=m, role=m.body.concept.role,
                                              nominal=y), (_exists_l(seq, m, y),))

        yield from _binary_candidates(("and-r", "sub-r"), seq, goal)
        yield from _binary_candidates(("or-l",), seq, shapes)

        if _quantified(succ, Forall):
            y = self.fresh_nominal()
            yield ("forall-r", RuleParams(role=succ.body.concept.role, nominal=y),
                   (_forall_r(seq, y),))

        yield from _binary_candidates(("or1-r", "or2-r"), seq, goal)

        if _quantified(succ, Exists):
            for m in [r for r in members if isinstance(r, RoleAssertion)]:
                premises = _exists_r(seq, m)
                if premises:
                    yield "exists-r", RuleParams(role=m.role, nominal=m.object), premises

        yield from _binary_candidates(("sub-l",), seq, shapes)

        edges = [r for r in members if isinstance(r, RoleAssertion)]
        for m in [m for m, nominal, c in shapes if nominal and isinstance(c, Forall)]:
            for r in edges:
                added = _forall_l(m, r)
                if added and added not in ant:
                    yield ("forall-l", RuleParams(principal=m, role=r.role,
                                                  nominal=r.object), (seq.with_extra(added),))

        yield from self._promotions(seq, members)

    def _promotions(self, seq: Sequent, members):
        ant, succ = seq.antecedent, seq.succedent
        concepts = [m for m in members if isinstance(m, ConceptF)]
        assertions = [m for m in members if not isinstance(m, ConceptF)]

        if isinstance(succ, ConceptF) and isinstance(succ.concept, Exists):
            role, body = succ.concept.role, succ.concept.body
            for alpha in concepts:
                if not (isinstance(alpha.concept, Exists)
                        and alpha.concept.role == role):
                    continue
                others = [c for c in concepts if c != alpha]
                if not all(isinstance(c.concept, Forall) and c.concept.role == role
                           for c in others):
                    continue
                prem_ant = ({ConceptF(c.concept.body) for c in others}
                            | set(assertions) | {ConceptF(alpha.concept.body)})
                yield ("p-exists",
                       RuleParams(principal=ConceptF(alpha.concept.body), role=role),
                       (Sequent(frozenset(prem_ant), ConceptF(body)),))

        if isinstance(succ, ConceptF) and isinstance(succ.concept, Forall):
            role, body = succ.concept.role, succ.concept.body
            if all(isinstance(c.concept, Forall) and c.concept.role == role
                   for c in concepts):
                prem_ant = ({ConceptF(c.concept.body) for c in concepts}
                            | set(assertions))
                yield ("p-forall", RuleParams(role=role),
                       (Sequent(frozenset(prem_ant), ConceptF(body)),))

        if isinstance(succ, NominalAssertion) and isinstance(succ.body, ConceptF):
            if not concepts:
                x = succ.nominal
                prem_ant = set()
                for m in assertions:
                    nc = _nom_concept(m)
                    if nc is not None and nc[0] == x:
                        prem_ant.add(ConceptF(nc[1]))
                    else:
                        prem_ant.add(m)
                prem = Sequent(frozenset(prem_ant), succ.body)
                if prem.antecedent != ant or prem.succedent != succ:
                    yield ("p-nom", RuleParams(prefix=x), (prem,))


def ref_prove(s: Sequent, max_depth: int = 24, max_visited: int = 100_000):
    """(tree or None, visited) from the reference search."""
    search = _RefSearch(s, max_visited)
    tree, _ = search.prove(s, max_depth, frozenset())
    return tree, search.visited


def _canonical(tree: ProofTree, root: Sequent) -> ProofTree:
    """tree with its engine nominals renamed in first-occurrence order.
    A fresh witness first occurs as the nominal of the node that
    introduces it, and preorder reaches that node before any use."""
    user, mapping = nominals_of(root), {}

    def collect(t):
        y = t.params.nominal
        if y and _ENGINE_NOMINAL.match(y) and y not in user:
            mapping.setdefault(y, f"_k{len(mapping)}")
        for c in t.premises:
            collect(c)

    def rename(t):
        p, seq = t.params, t.conclusion
        params = p._replace(
            principal=p.principal and _rename_formula(p.principal, mapping),
            nominal=mapping.get(p.nominal, p.nominal), prefix=mapping.get(p.prefix, p.prefix))
        conclusion = Sequent(frozenset(_rename_formula(f, mapping) for f in seq.antecedent),
                             _rename_formula(seq.succedent, mapping))
        return ProofTree(conclusion, t.rule, params, tuple(rename(c) for c in t.premises))

    collect(tree)
    return rename(tree)


def _assert_matches_reference(s: Sequent, max_depth: int, max_visited: int = 100_000):
    result = prove(s, max_depth=max_depth, max_visited=max_visited)
    ref_tree, ref_visited = ref_prove(s, max_depth, max_visited)
    assert result.proved == (ref_tree is not None), render(s)
    if ref_tree is not None:
        assert _canonical(result.tree, s) == _canonical(ref_tree, s), render(s)
    assert result.visited <= ref_visited, render(s)
    return result


@pytest.mark.parametrize("texts,depth", [(PROVABLE, 16), (UNPROVABLE, 24)],
                         ids=["provable", "unprovable"])
def test_search_matches_reference_on_fixed_sequents(texts, depth):
    for text in texts:
        _assert_matches_reference(S(text), depth)


def test_search_matches_reference_on_schema_instances():
    for s in schema_instance_corpus(per_axiom=4, seed=11):
        _assert_matches_reference(s, 16)


def test_search_matches_reference_on_random_sequents():
    rng = random.Random(2718)
    for _ in range(300):
        _assert_matches_reference(_random_sequent(rng), 10, 5000)


@pytest.mark.parametrize("idx", sorted(AXIOM_ROOTS))
def test_axiom_roots_visit_no_more_than_reference(idx):
    goal = S(AXIOM_ROOTS[idx])
    result = _assert_matches_reference(goal, 16)
    assert result.proved and check_proof(result.tree).ok


def test_unknown_names_the_budget_that_stopped_it():
    goal = S(AXIOM_ROOTS[5])
    assert prove(goal, max_visited=2).budget == "visited"
    shallow = prove(goal, max_depth=3)
    assert shallow.budget == "depth" and shallow.cache_hits and shallow.loop_prunes
    assert prove(goal, max_depth=16).budget is None
    # a search that runs out of sequents to try is stopped by neither budget
    assert prove(S("|- A | not A"), max_depth=24).budget is None


def test_a_failure_that_did_not_run_out_of_depth_names_no_budget():
    # the first conjunct is proved after one of its branches runs out of depth;
    # the second fails at every depth, so no depth budget stopped the search
    goal = S("x : A |- x : ((all R.all R.B | A) & C)")
    result = prove(goal, max_depth=3)
    assert (result.proved, result.budget, result.committed) == (False, None, 1)
    assert prove(goal, max_depth=24).budget is None


@pytest.mark.parametrize("depth,visited", [(9, 34), (10, 21)])
def test_a_failure_that_ran_out_of_depth_commits_to_nothing(depth, visited):
    # the first n-and-l premise fails at this depth only because it runs out;
    # inverting it costs a level, and a later n-and-l finds the proof
    goal = S("x : (all R.B | not B) ; x : (not B & (B & B)) ; x : all R.(A & bot) "
             "|- x : (B & B -> some R.B -> all R.B)")
    result = prove(goal, max_depth=depth)
    assert result.proved and check_proof(result.tree).ok
    assert result.visited == visited


PROVE_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "prove.json"


def test_commitment_loses_no_proof():
    """The goals proved before the search committed to invertible steps,
    pinned by the sha256 of their sorted ids: the benchmark's prove pool at
    depth 16, and seeded random sequents at depth 12 with a cap of 5,000."""
    pool = [(e["id"], parse_problem(e["text"]).sequent())
            for e in json.loads(PROVE_POOL.read_text())]
    rng = random.Random(2026)
    for goals, depth, cap, n, digest, most in [
        (pool, 16, 100_000, 602,
         "98c407ea1fd0e305d9f47067c9125fd4c4db9652b626386ab35f61ccd1471c5c", 11_000),
        ([(i, _random_sequent(rng)) for i in range(1500)], 12, 5000, 149,
         "e1413f4f6ad58ff4cd96f3df35024bf526a9548f524650060e9cea0b26b25fd9", 7500),
    ]:
        proved, visited = [], 0
        for name, goal in goals:
            result = prove(goal, max_depth=depth, max_visited=cap)
            visited += result.visited
            if result.proved:
                assert check_proof(result.tree).ok, name
                proved.append(name)
        assert len(proved) == n
        assert hashlib.sha256(json.dumps(sorted(proved)).encode()).hexdigest() == digest
        assert visited <= most


# sha256 over each goal's rendered root, visited, cache hits, loop prunes,
# budget and proof file text: the five golden roots at depth 16, then 300
# seeded random goals at depth 10, each with a cap of 5,000 visited nodes.
# It pins the search's DFS order, engine names and failure cache, and must
# not depend on PYTHONHASHSEED or on set iteration order.
SEARCH_DIGEST = "c56ab4c048d4ad8148758a60dcae4a622a1b4c287e06eac139cd296d79e866ad"


def test_search_digest_is_pinned():
    rng = random.Random(1402)
    goals = [(S(AXIOM_ROOTS[i]), 16) for i in sorted(AXIOM_ROOTS)]
    goals += [(_random_sequent(rng), 10) for _ in range(300)]
    digest = hashlib.sha256()
    for goal, depth in goals:
        r = prove(goal, max_depth=depth, max_visited=5000)
        tree = json.dumps(tree_to_dict(r.tree)) if r.proved else None
        digest.update(repr((render(goal), r.visited, r.cache_hits, r.loop_prunes,
                            r.budget, tree)).encode())
    assert digest.hexdigest() == SEARCH_DIGEST
