"""The countermodel search evaluates only the frames that can hold the
first countermodel: one per isomorphism class, generated ones only, each
once for all its models.

Three checks pin it:
- the lemma it rests on, on every model of at most three worlds over A, R
  and x: a model falsifying a sequent has a falsifying generated submodel;
- ``modelgen.candidate`` keeps exactly the frames that come first among
  their relabellings and, without nominals, are generated by one world,
  and so every frame that holds a model that comes first among its
  relabellings and is generated by one world plus the nominals' worlds,
  against brute-force oracles over the public views;
- ``find_countermodel`` reports what the plain loop over the stream
  reports, pulls as many models from the stream and counts in its stats
  the models and frames it pulled, on the countermodel pool and on seeded
  random sequents.
"""

import json
import random
from itertools import permutations
from pathlib import Path

import pytest

from ialc.modelgen import (
    Signature, candidate, enumerate_models, random_model, signature_for,
)
from ialc import sequent
from ialc.semantics import (
    Interpretation, UnassignedNominalError, model_to_dict, sequent_valid,
)
from ialc.sequent import find_countermodel
from ialc.syntax import (
    BOT, TOP, And, Atom, ConceptF, Exists, Forall, NominalAssertion, Not, Or,
    RoleAssertion, Sequent, Subs, names_of, nominals_of, parse_problem, parse_sequent, render,
)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "countermodel.json"


def _random_sequent(rng, leaves, nominals):
    """A sequent with at most two antecedent members over role R."""
    def concept(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        kind = rng.choice(["not", "and", "or", "subs", "some", "all", "some", "all"])
        if kind == "not":
            return Not(concept(depth - 1))
        if kind in ("some", "all"):
            return (Exists if kind == "some" else Forall)("R", concept(depth - 1))
        return {"and": And, "or": Or, "subs": Subs}[kind](concept(depth - 1), concept(depth - 1))

    def formula():
        roll = rng.random()
        if roll < 0.35:
            return ConceptF(concept(2))
        if roll < 0.55:
            return RoleAssertion(rng.choice(nominals), "R", rng.choice(nominals))
        return NominalAssertion(rng.choice(nominals), ConceptF(concept(2)))

    return Sequent.make([formula() for _ in range(rng.randint(0, 2))], formula())


def _same(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and model_to_dict(a) == model_to_dict(b))


# ---------------------------------------------------------------------------
# The generated-submodel lemma
# ---------------------------------------------------------------------------

def _closure(roots, edges) -> frozenset:
    """The worlds reachable from roots along edges (pairs)."""
    seen, todo = set(roots), list(roots)
    while todo:
        w = todo.pop()
        for v in edges.get(w, ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return frozenset(seen)


def _edges(I: Interpretation) -> dict:
    """Successors under refinement and every role."""
    out: dict = {}
    for pairs in (I.leq, *I.roles.values()):
        for a, b in pairs:
            out.setdefault(a, set()).add(b)
    return out


def _submodel(I: Interpretation, keep: frozenset) -> Interpretation:
    """The submodel on keep, its worlds renamed 0, 1, ... in their order."""
    name = {w: i for i, w in enumerate(sorted(keep))}

    def pairs(rel):
        return [(name[a], name[b]) for a, b in rel if a in keep and b in keep]

    return Interpretation.make(
        range(len(keep)), pairs(I.leq), {r: pairs(rel) for r, rel in I.roles.items()},
        {a: [name[w] for w in ext if w in keep] for a, ext in I.atoms.items()},
        {x: name[w] for x, w in I.nominals.items()})


def test_failure_survives_in_a_generated_submodel():
    """Every model of at most three worlds over A, R and x (each model over
    A and R, with x at each of its worlds): whenever it falsifies a sequent
    of a seeded batch, under either reading, the relabelled submodel that
    some world generates with x's world falsifies it too.  A model that one
    such submodel covers is that submodel, so only the others are run."""
    split, count = [], 0
    for I in enumerate_models(Signature(("A",), ("R",), (), 3)):
        edges = _edges(I)
        reach = {w: _closure({w}, edges) for w in I.worlds}
        for x in I.worlds:
            count += 1
            parts = {reach[w] | reach[x] for w in I.worlds}
            if len(I.worlds) not in map(len, parts):
                J = Interpretation.make(I.worlds, I.leq, I.roles, I.atoms, {"x": x})
                split.append((J, [_submodel(J, keep) for keep in parts]))
    assert (count, len(split)) == (64952, 1743)
    rng = random.Random(8)
    batch = [_random_sequent(rng, [Atom("A"), TOP, BOT], ["x"]) for _ in range(12)]
    batch += [Sequent.make([RoleAssertion("x", "R", "x")], ConceptF(Atom("A"))),
              Sequent.make([], NominalAssertion("x", ConceptF(Exists("R", TOP))))]
    falsified = 0
    for s in batch:
        for tbox_global in (True, False):
            for I, subs in split:
                if not sequent_valid(I, s, tbox_global):
                    falsified += 1
                    assert any(not sequent_valid(J, s, tbox_global) for J in subs), (
                        render(s), model_to_dict(I))
    assert falsified > 5_000


# ---------------------------------------------------------------------------
# The candidates are the orbit-first generated frames
# ---------------------------------------------------------------------------

def _key(I: Interpretation, sig: Signature, p, models: bool) -> tuple:
    """I's enumeration key under the relabelling p of its worlds: of its
    frame, or with models, of the whole model."""
    n = len(I.worlds)

    def rel(pairs):
        return sum(1 << p[a] * n + p[b] for a, b in pairs)

    key = (rel(I.leq), *(rel(I.roles[r]) for r in sig.roles))
    if not models:
        return key
    return (*key, *(sum(1 << p[w] for w in I.atoms[a]) for a in sig.atoms),
            tuple(p[I.nominals[x]] for x in sig.nominals))


def _is_candidate(I: Interpretation, sig: Signature, models: bool = True) -> bool:
    """Brute force: I's key is the least over every relabelling of its
    worlds, and one world with the nominals' worlds generates it.  Of
    its frame, without models: the key of the frame, and without
    nominals, one world generates it."""
    n = len(I.worlds)
    own = _key(I, sig, range(n), models)
    if any(_key(I, sig, p, models) < own for p in permutations(range(n))):
        return False
    edges = _edges(I)
    roots = set(I.nominals.values()) if models else set(I.worlds) if sig.nominals else set()
    return any(len(_closure(roots | {w}, edges)) == n for w in I.worlds)


@pytest.mark.parametrize("sig", [
    Signature(("A", "B"), (), ("x", "y"), 3),
    Signature((), ("R",), ("x",), 3),
    Signature(("A",), ("R", "S"), ("x", "y"), 2),
], ids=str)
def test_candidates_are_the_orbit_first_generated_models(sig):
    models = list(enumerate_models(sig))
    first = {I._k: I for I in reversed(models)}
    kept = {k: candidate(k, sig) for k in first}
    assert kept == {k: _is_candidate(I, sig, models=False) for k, I in first.items()}
    assert all(kept[I._k] for I in models if _is_candidate(I, sig))
    assert 0 < sum(kept.values()) < len(kept)


# ---------------------------------------------------------------------------
# Differential: find_countermodel against the plain loop
# ---------------------------------------------------------------------------

def _counting(models, pulled: list):
    for I in models:
        pulled[0] += 1
        yield I


@pytest.fixture
def pulled(monkeypatch) -> list:
    """The count of the models find_countermodel pulls from the stream."""
    pulled = [0]
    monkeypatch.setattr(sequent, "enumerate_models",
                        lambda sig: _counting(enumerate_models(sig), pulled))
    return pulled


def _plain(s, sig: Signature, tbox_global: bool) -> tuple:
    """The plain loop's first countermodel, how many models it pulled and
    how many frames (kernels) they came from."""
    plain, kernels = [0], set()
    for I in _counting(enumerate_models(sig), plain):
        kernels.add(I._k)
        if not sequent_valid(I, s, tbox_global):
            return I, plain[0], len(kernels)
    return None, plain[0], len(kernels)


def _matches_the_plain_loop(s, sig: Signature, pulled: list, ident) -> list:
    """Under both readings, find_countermodel reports the plain loop's model
    and pulls as many models, with stats or without, and its counts are the
    stream position: the models and frames the plain loop pulled.  Returns
    the plain loop's models."""
    found = []
    for tbox_global in (True, False):
        expected, count, kernels = _plain(s, sig, tbox_global)
        why, local = (ident, tbox_global), frozenset() if tbox_global else s.antecedent
        for stats in (None, {}):
            pulled[0] = 0
            assert _same(find_countermodel(s, sig, local, stats), expected), why
            assert pulled[0] == count, why
        assert sum(stats["enumerated"].values()) == count, why
        assert sum(stats["frames"].values()) == kernels, why
        found.append(expected)
    return found


def _pool_cases():
    with open(POOL, "r", encoding="utf-8") as fh:
        pool = json.load(fh)
    return [e for e in pool if e["cost_s"] < 1]


def test_pool_countermodels_match_the_plain_loop(pulled):
    cases = _pool_cases()
    assert len(cases) == 721
    found = 0
    for e in cases:
        s = parse_problem(e["text"]).sequent()
        sig = signature_for(s, e["max_worlds"])
        found += sum(I is not None for I in _matches_the_plain_loop(s, sig, pulled, e["id"]))
    assert found > 900


def test_random_countermodels_match_the_plain_loop(pulled):
    """600 seeded random sequents with roles and nominals at three worlds,
    under both readings, drawn among those a random three-world model
    falsifies: a valid sequent would only time the plain loop's sweep, as
    no filter of the stream can report a model where it reports none."""
    rng = random.Random(2026)
    drawn = []
    while len(drawn) < 600:
        s = _random_sequent(rng, [Atom("A"), TOP, BOT], ["x", "y"])
        sig = signature_for(s, 3)
        if (names_of(s)[1] and nominals_of(s)
                and not sequent_valid(random_model(sig, rng.randrange(1 << 30)), s)):
            drawn.append((s, sig))
    worlds = []
    for s, sig in drawn:
        worlds += [len(I.worlds) for I in _matches_the_plain_loop(s, sig, pulled, render(s))]
    assert sum(n > 1 for n in worlds) > 50


def test_a_nominal_the_signature_misses_is_reported_up_front():
    s = parse_sequent("x : A |- y : A")
    sig = signature_for(s, 1)._replace(nominals=("x",))
    with pytest.raises(UnassignedNominalError) as e:
        find_countermodel(s, sig)
    assert e.value.nominal == "y"
