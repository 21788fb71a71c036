"""Sequent corpora for the tests and ``scripts/soundness_sweep.py``: the axiom
roots, written once as ``ialc.hilbert.AXIOM_ROOTS``, and random instances of
them by ``ialc.syntax.substitute``; and the paths, labels and relabellings of
a proof tree's nodes, for the tests that mutate one rule label of a golden
proof.  Only tests and scripts use it, so it lives beside ``ref_sequent.py``
rather than in the package."""

from __future__ import annotations

import random
from functools import partial
from typing import Sequence

from ialc.hilbert import AXIOM_ROOTS
from ialc.sequent import ProofTree
from ialc.syntax import (
    And, Atom, BOT, Concept, Exists, Forall, Not, Or, Sequent, Subs, TOP,
    parse_sequent, substitute,
)

__all__ = ["axiom_root_sequent", "random_concept", "schema_instance_corpus"]


def axiom_root_sequent(i: int, alpha: Concept, beta: Concept) -> Sequent:
    """Root sequent of the i-th axiom derivation, with alpha/beta
    substituted for the schematic concepts A and B."""
    return substitute(parse_sequent(AXIOM_ROOTS[i]), {"A": alpha, "B": beta})


def random_concept(rng: random.Random, atoms: Sequence[str],
                   roles: Sequence[str], depth: int) -> Concept:
    """Random concept of the given maximum connective depth."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.choice(list(atoms)))
        return TOP if roll < 0.9 else BOT
    kind = rng.choice(["atom", "not", "and", "or", "subs", "exists", "forall"])
    if kind == "atom":
        return Atom(rng.choice(list(atoms)))
    part = partial(random_concept, rng, atoms, roles, depth - 1)
    if kind == "not":
        return Not(part())
    if kind in ("and", "or", "subs"):
        return {"and": And, "or": Or, "subs": Subs}[kind](part(), part())
    return (Exists if kind == "exists" else Forall)(rng.choice(list(roles)), part())


def schema_instance_corpus(per_axiom: int, seed: int,
                           atoms: Sequence[str] = ("A", "B"),
                           roles: Sequence[str] = ("R",),
                           depth: int = 2) -> list[Sequent]:
    """The five axiom roots plus per_axiom random instances of each."""
    rng = random.Random(seed)
    out = [axiom_root_sequent(i, Atom("A"), Atom("B")) for i in range(1, 6)]
    for i in range(1, 6):
        for _ in range(per_axiom):
            alpha = random_concept(rng, atoms, roles, depth)
            beta = random_concept(rng, atoms, roles, depth)
            out.append(axiom_root_sequent(i, alpha, beta))
    return out


def _paths(tree, path=()):
    """The path (premise indices from the root) of every node of tree, parents first."""
    yield path
    for i, child in enumerate(tree.premises):
        yield from _paths(child, path + (i,))


def _relabel(tree, path, label):
    """tree with the node at path relabelled label."""
    if not path:
        return ProofTree(tree.conclusion, label, tree.params, tree.premises)
    premises = list(tree.premises)
    premises[path[0]] = _relabel(premises[path[0]], path[1:], label)
    return ProofTree(tree.conclusion, tree.rule, tree.params, tuple(premises))


def _rule_at(tree, path):
    """The rule label of the node at path."""
    for i in path:
        tree = tree.premises[i]
    return tree.rule
