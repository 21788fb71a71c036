"""The five axiom derivations as checkable proof trees.

These are the sequent-calculus derivations of the five modal axiom
schemata, instantiated with atoms A, B and role R.  Trees 1 and 2 use no
nominals; trees 3..5 run through hybrid assertions.  Tree 4 derives the
existential/or distribution through exists-l / or-l / exists-r; tree 5
is the converse Fischer-Servi direction via forall-r and a two-premise
subsumption split.
"""

from __future__ import annotations

from .sequent import ProofTree, RuleParams
from .syntax import parse_formula, parse_sequent

__all__ = ["axiom_trees", "AXIOM_ROOTS"]

AXIOM_ROOTS = {
    1: "all R.(A -> B) |- some R.A -> some R.B",
    2: "all R.(A -> B) |- all R.A -> all R.B",
    3: "|- x : (some R.bot -> bot)",
    4: "x : some R.(A | B) |- x : (some R.A | some R.B)",
    5: "|- x : ((some R.A -> all R.B) -> all R.(A -> B))",
}


def _node(rule: str, conclusion: str, premises=(), principal=None,
          role=None, nominal=None, prefix=None) -> ProofTree:
    params = RuleParams(
        principal=parse_formula(principal) if principal else None,
        role=role, nominal=nominal, prefix=prefix)
    return ProofTree(parse_sequent(conclusion), rule, params, tuple(premises))


def _tree1() -> ProofTree:
    left = _node("axiom", "A |- A")
    right = _node("axiom", "B |- B")
    sl = _node("sub-l", "A -> B ; A |- B", (left, right), principal="A -> B")
    pe = _node("p-exists", "all R.(A -> B) ; some R.A |- some R.B", (sl,),
               principal="A", role="R")
    return _node("sub-r", AXIOM_ROOTS[1], (pe,))


def _tree2() -> ProofTree:
    left = _node("axiom", "A |- A")
    right = _node("axiom", "B |- B")
    sl = _node("sub-l", "A -> B ; A |- B", (left, right), principal="A -> B")
    pf = _node("p-forall", "all R.(A -> B) ; all R.A |- all R.B", (sl,),
               role="R")
    return _node("sub-r", AXIOM_ROOTS[2], (pf,))


def _tree3() -> ProofTree:
    leaf = _node("bot-l", "R(x,y) ; y : bot |- x : bot")
    el = _node("exists-l", "x : some R.bot |- x : bot", (leaf,),
               principal="x : some R.bot", role="R", nominal="y")
    return _node("n-sub-r", AXIOM_ROOTS[3], (el,))


def _exists_r(atom: str) -> ProofTree:
    """R(x,y) ; y : atom |- x : some R.atom, by exists-r over two axioms."""
    ctx = f"R(x,y) ; y : {atom}"
    return _node("exists-r", f"{ctx} |- x : some R.{atom}",
                 (_node("axiom", f"{ctx} |- R(x,y)"), _node("axiom", f"{ctx} |- y : {atom}")),
                 role="R", nominal="y")


def _tree4() -> ProofTree:
    goal = "x : (some R.A | some R.B)"
    left = _node("n-or1-r", f"R(x,y) ; y : A |- {goal}", (_exists_r("A"),))
    right = _node("n-or2-r", f"R(x,y) ; y : B |- {goal}", (_exists_r("B"),))
    ol = _node("n-or-l", f"R(x,y) ; y : (A | B) |- {goal}", (left, right),
               principal="y : (A | B)")
    return _node("exists-l", AXIOM_ROOTS[4], (ol,),
                 principal="x : some R.(A | B)", role="R", nominal="y")


def _tree5() -> ProofTree:
    fl = _node("forall-l", "R(x,y) ; x : all R.B ; y : A |- y : B",
               (_node("axiom", "R(x,y) ; x : all R.B ; y : A ; y : B |- y : B"),),
               principal="x : all R.B", role="R", nominal="y")
    sl = _node("n-sub-l",
               "R(x,y) ; x : (some R.A -> all R.B) ; y : A |- y : B",
               (_exists_r("A"), fl), principal="x : (some R.A -> all R.B)")
    sr = _node("n-sub-r",
               "R(x,y) ; x : (some R.A -> all R.B) |- y : (A -> B)", (sl,))
    fr = _node("forall-r",
               "x : (some R.A -> all R.B) |- x : all R.(A -> B)", (sr,),
               role="R", nominal="y")
    return _node("n-sub-r", AXIOM_ROOTS[5], (fr,))


def axiom_trees() -> dict[int, ProofTree]:
    """Derivation trees for the five modal axioms, keyed 1..5."""
    return {1: _tree1(), 2: _tree2(), 3: _tree3(), 4: _tree4(), 5: _tree5()}
