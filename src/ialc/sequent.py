"""Sequent calculus: rule checking, proof trees, bounded backward search.

Antecedents are sets, so exchange and contraction are invisible;
weakening is an explicit rule node and cut is checkable but never used
by the search.  Rule labels:

    axiom, bot-l                      initial sequents
    forall-r, forall-l                role quantification, universal
    exists-r, exists-l                role quantification, existential
    sub-r, sub-l, and-r, and-l,       propositional rules; each has a
    or1-r, or2-r, or-l                nominal variant (prefix ``n-``)
                                      carrying one shared outer nominal
    p-exists, p-forall, p-nom         promotion rules: quantify or prefix
                                      every concept of the antecedent,
                                      assertions pass through untouched
    cut, weaken                       structural

``exists-l`` and ``forall-r`` require their witness nominal not to
occur in the conclusion; the search engine instantiates both with an
engine-fresh nominal (reserved names ``_n0``, ``_n1``, ...).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional, Sequence

from .modelgen import Signature, enumerate_models
from .semantics import Interpretation, entails
from .syntax import (
    And, Bot, ConceptF, Exists, Forall, Formula, NominalAssertion,
    Or, RoleAssertion, Sequent, Subs, nominals_of, parse_formula,
    parse_sequent, render,
)

__all__ = [
    "RuleParams", "ProofTree", "CheckResult", "RULE_ARITY", "RULE_LABELS",
    "check_step", "check_proof", "prove", "ProveResult", "find_countermodel",
    "weaken_tree", "tree_to_dict", "tree_from_dict", "load_proof", "save_proof",
    "ProofFileError",
]

RULE_ARITY = {
    "axiom": 0, "bot-l": 0,
    "forall-r": 1, "forall-l": 1, "exists-r": 2, "exists-l": 1,
    "sub-r": 1, "sub-l": 2, "and-r": 2, "and-l": 1,
    "or1-r": 1, "or2-r": 1, "or-l": 2,
    "p-exists": 1, "p-forall": 1, "p-nom": 1,
    "cut": 2, "weaken": 1,
}

_NOMINAL_VARIANTS = {"sub-r", "sub-l", "and-r", "and-l", "or1-r", "or2-r", "or-l"}

RULE_LABELS = tuple(sorted(RULE_ARITY) + sorted("n-" + r for r in _NOMINAL_VARIANTS))


def _split_rule(label: str) -> Optional[tuple[str, bool]]:
    if label in RULE_ARITY:
        return label, False
    if label.startswith("n-") and label[2:] in _NOMINAL_VARIANTS:
        return label[2:], True
    return None


@dataclass(frozen=True)
class RuleParams:
    principal: Optional[Formula] = None   # the formula the rule acts on
    role: Optional[str] = None
    nominal: Optional[str] = None         # witness nominal (exists-l, forall-r, ...)
    prefix: Optional[str] = None          # the x of p-nom
    cut_formula: Optional[Formula] = None


_NO_PARAMS = RuleParams()


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: str
    params: RuleParams = _NO_PARAMS
    premises: tuple["ProofTree", ...] = ()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: Optional[tuple[int, ...]] = None   # premise indices from the root
    reason: Optional[str] = None

    def __str__(self):
        if self.ok:
            return "accepted"
        where = "root" if not self.path else "node " + ".".join(map(str, self.path))
        return f"rejected at {where}: {self.reason}"


# ---------------------------------------------------------------------------
# Rule schema checking
# ---------------------------------------------------------------------------

def _nom_concept(f: Formula):
    """(nominal, concept) when f is ``x : C`` with a concept body."""
    if isinstance(f, NominalAssertion) and isinstance(f.body, ConceptF):
        return f.nominal, f.body.concept
    return None


def _split_binary(f: Formula, op, nominal: bool):
    """Left/right components of a binary principal, hatted with the
    shared outer nominal for the nominal variants."""
    if nominal:
        nc = _nom_concept(f)
        if nc is None or not isinstance(nc[1], op):
            return None
        x, c = nc
        return (NominalAssertion(x, ConceptF(c.left)),
                NominalAssertion(x, ConceptF(c.right)))
    if isinstance(f, ConceptF) and isinstance(f.concept, op):
        return ConceptF(f.concept.left), ConceptF(f.concept.right)
    return None


def _shape(f: Formula) -> tuple:
    """(f, whether f is an assertion x : C, and its top concept C or None)."""
    nc = _nom_concept(f)
    return (f, True, nc[1]) if nc else (f, False, getattr(f, "concept", None))


def _promote(members, make) -> frozenset:
    """Apply ``make`` to every concept member, pass assertions through."""
    return frozenset(make(m) if isinstance(m, ConceptF) else m for m in members)


# The propositional rules, each one backward decomposition shared by checker
# and search: operator, principal on the left, and the premises' (antecedent,
# succedent) pairs from (antecedent, antecedent minus principal, a, b, succedent).
_BINARY_RULES = {
    "and-l": (And, True, lambda ant, rest, a, b, g: [(rest | {a, b}, g)]),
    "or-l": (Or, True, lambda ant, rest, a, b, g: [(rest | {a}, g), (rest | {b}, g)]),
    "sub-l": (Subs, True, lambda ant, rest, a, b, g: [(ant, a), (rest | {b}, g)]),
    "and-r": (And, False, lambda ant, rest, a, b, g: [(ant, a), (ant, b)]),
    "sub-r": (Subs, False, lambda ant, rest, a, b, g: [(ant | {a}, b)]),
    "or1-r": (Or, False, lambda ant, rest, a, b, g: [(ant, a)]),
    "or2-r": (Or, False, lambda ant, rest, a, b, g: [(ant, b)]),
}


def _binary(rule: str, seq: Sequent, m: Formula, parts: tuple) -> tuple:
    """Premises of a propositional rule applied backward to seq with
    principal m, whose two (hatted) components are parts."""
    _, left, premises = _BINARY_RULES[rule]
    ant = seq.antecedent
    rest = ant - {m} if left else ant
    return tuple(Sequent(frozenset(a), g)
                 for a, g in premises(ant, rest, *parts, seq.succedent))


# The role rules, each one backward decomposition shared by checker and search.

def _quantified(f: Formula, op):
    """(x, q) when f is ``x : q`` with q an ``op`` (Exists/Forall) concept."""
    _, nominal, q = _shape(f)
    return (f.nominal, q) if nominal and isinstance(q, op) else None


def _forall_r(seq: Sequent, y: str) -> Optional[Sequent]:
    xq = _quantified(seq.succedent, Forall)
    return xq and Sequent(seq.antecedent | {RoleAssertion(xq[0], xq[1].role, y)},
                          NominalAssertion(y, ConceptF(xq[1].body)))


def _forall_l(m: Formula, r: Formula) -> Optional[Formula]:
    """What forall-l adds for x : all R.C and R(x,y): the assertion y : C."""
    xq = _quantified(m, Forall)
    if xq is None or not (isinstance(r, RoleAssertion) and r.subject == xq[0]
                          and r.role == xq[1].role):
        return None
    return NominalAssertion(r.object, ConceptF(xq[1].body))


def _exists_r(seq: Sequent, r: Formula) -> Optional[tuple]:
    xq = _quantified(seq.succedent, Exists)
    if xq is None or not (isinstance(r, RoleAssertion) and r.subject == xq[0]
                          and r.role == xq[1].role):
        return None
    return (Sequent(seq.antecedent, r),
            Sequent(seq.antecedent, NominalAssertion(r.object, ConceptF(xq[1].body))))


def _exists_l(seq: Sequent, m: Formula, y: str) -> Optional[Sequent]:
    xq = _quantified(m, Exists)
    return xq and Sequent((seq.antecedent - {m}) | {RoleAssertion(xq[0], xq[1].role, y),
                                                    NominalAssertion(y, ConceptF(xq[1].body))},
                          seq.succedent)


def check_step(rule: str, params: Optional[RuleParams],
               premises: Sequence[Sequent], conclusion: Sequent) -> bool:
    """True iff premises/conclusion instantiate the rule schema exactly.

    Params narrow the principal/witness choice when given; otherwise all
    decompositions are tried.
    """
    split = _split_rule(rule)
    if split is None:
        return False
    base, nominal = split
    if len(premises) != RULE_ARITY[base]:
        return False
    p = params or _NO_PARAMS
    ant, succ = conclusion.antecedent, conclusion.succedent

    if base == "axiom":
        return succ in ant

    if base == "bot-l":
        return any(isinstance(_shape(m)[2], Bot) for m in ant)

    if base == "weaken":
        (prem,) = premises
        return prem.succedent == succ and prem.antecedent <= ant

    if base == "cut":
        p1, p2 = premises
        gamma = p1.succedent
        if p.cut_formula is not None and p.cut_formula != gamma:
            return False
        return (gamma in p2.antecedent and p2.succedent == succ
                and p1.antecedent | (p2.antecedent - {gamma}) == ant)

    if base == "forall-r":
        (prem,) = premises
        xq, ps = _quantified(succ, Forall), _nom_concept(prem.succedent)
        if xq is None or ps is None:
            return False
        # the witness must be fresh for the conclusion (eigenvariable)
        y = ps[0]
        return (p.role in (None, xq[1].role) and p.nominal in (None, y)
                and y not in nominals_of(conclusion) and _forall_r(conclusion, y) == prem)

    if base == "forall-l":
        (prem,) = premises
        return any(added and conclusion.with_extra(added) == prem
                   for m in ant if p.principal in (None, m)
                   for r in ant if isinstance(r, RoleAssertion) and p.nominal in (None, r.object)
                   for added in [_forall_l(m, r)])

    if base == "exists-r":
        ra = premises[0].succedent
        return (_exists_r(conclusion, ra) == tuple(premises)
                and p.nominal in (None, ra.object))

    if base == "exists-l":
        (prem,) = premises
        # the witness must be fresh for the conclusion
        ys = [p.nominal] if p.nominal is not None else [
            r.object for r in prem.antecedent if isinstance(r, RoleAssertion)]
        conol = nominals_of(conclusion)
        return any(y not in conol and _exists_l(conclusion, m, y) == prem
                   for m in ant if p.principal in (None, m) for y in ys)

    if base == "sub-l":
        # the two premises may split the context
        p1, p2 = premises
        return p2.succedent == succ and any(
            parts and p1.succedent == parts[0] and parts[1] in p2.antecedent
            and p1.antecedent | (p2.antecedent - {parts[1]}) | {m} == ant
            for m in ant if p.principal in (None, m)
            for parts in [_split_binary(m, Subs, nominal)])

    if base in _BINARY_RULES:
        op, left, _ = _BINARY_RULES[base]
        return any(parts and _binary(base, conclusion, m, parts) == tuple(premises)
                   for m in (ant if left else [succ]) if not left or p.principal in (None, m)
                   for parts in [_split_binary(m, op, nominal)])

    if base in ("p-exists", "p-forall"):
        (prem,) = premises
        q = succ.concept if isinstance(succ, ConceptF) else None
        if (not isinstance(q, Exists if base == "p-exists" else Forall)
                or p.role not in (None, q.role) or prem.succedent != ConceptF(q.body)):
            return False

        def box(m):
            return ConceptF(Forall(q.role, m.concept))
        if base == "p-forall":
            return _promote(prem.antecedent, box) == ant
        # the antecedent is a set: the diamond body may also be a box body
        return any(_promote(rest, box) | {ConceptF(Exists(q.role, alpha.concept))} == ant
                   for alpha in prem.antecedent
                   if isinstance(alpha, ConceptF) and p.principal in (None, alpha)
                   for rest in (prem.antecedent - {alpha}, prem.antecedent))

    if base == "p-nom":
        (prem,) = premises
        if isinstance(prem.succedent, ConceptF):
            if not (isinstance(succ, NominalAssertion) and succ.body == prem.succedent):
                return False
            candidates = [succ.nominal]
        else:
            if succ != prem.succedent:
                return False
            if p.prefix is not None:
                candidates = [p.prefix]
            else:
                candidates = sorted({m.nominal for m in ant
                                     if isinstance(m, NominalAssertion)})
                if not candidates and prem.antecedent == ant:
                    return True
        for x in candidates:
            if p.prefix is not None and p.prefix != x:
                continue
            lifted = _promote(prem.antecedent,
                              lambda m: NominalAssertion(x, m))
            if lifted == ant:
                return True
        return False

    raise AssertionError(f"unhandled rule {base}")


def check_proof(t: ProofTree) -> CheckResult:
    """Accept iff every node instantiates its rule; first bad node wins
    (preorder: a node is reported before its premises)."""
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        split = _split_rule(node.rule)
        if split is None:
            return CheckResult(False, path, f"unknown rule {node.rule!r}")
        got = len(node.premises)
        base = split[0]
        if got != RULE_ARITY[base]:
            return CheckResult(False, path,
                               f"{node.rule} needs {RULE_ARITY[base]} premises, got {got}")
        if not check_step(node.rule, node.params,
                          [c.conclusion for c in node.premises], node.conclusion):
            return CheckResult(False, path,
                               f"{node.rule} does not derive {render(node.conclusion)}")
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], path + (i,)))
    return CheckResult(True)


def weaken_tree(t: ProofTree, extra: Formula) -> ProofTree:
    """A proof of the conclusion weakened by one antecedent formula.

    Context-preserving rules absorb the extra formula; initial sequents,
    promotions, and cut get an explicit weaken node instead (promotions
    rewrite their whole context, so the extra formula cannot be pushed
    through them unchanged).
    """
    target = Sequent(t.conclusion.antecedent | {extra}, t.conclusion.succedent)
    base = _split_rule(t.rule)[0]
    if RULE_ARITY[base] == 0 or base in ("p-exists", "p-forall", "p-nom", "cut"):
        return ProofTree(target, "weaken", _NO_PARAMS, (t,))
    return ProofTree(target, t.rule, t.params,
                     tuple(weaken_tree(c, extra) for c in t.premises))


# ---------------------------------------------------------------------------
# Proof files
# ---------------------------------------------------------------------------

class ProofFileError(Exception):
    pass


def tree_to_dict(t: ProofTree) -> dict:
    d: dict = {"rule": t.rule, "conclusion": render(t.conclusion)}
    params = {("cut" if k == "cut_formula" else k): render(v) if isinstance(v, Formula) else v
              for k, v in vars(t.params).items() if v is not None}
    if params:
        d["params"] = params
    d["premises"] = [tree_to_dict(c) for c in t.premises]
    return d


def tree_from_dict(d: dict) -> ProofTree:
    try:
        rule = d["rule"]
        if not isinstance(rule, str):
            raise ProofFileError(f"rule must be a string, got {rule!r}")
        conclusion = parse_sequent(d["conclusion"])
        raw = d.get("params", {})
        params = RuleParams(
            principal=parse_formula(raw["principal"]) if "principal" in raw else None,
            role=raw.get("role"),
            nominal=raw.get("nominal"),
            prefix=raw.get("prefix"),
            cut_formula=parse_formula(raw["cut"]) if "cut" in raw else None,
        )
        premises = tuple(tree_from_dict(c) for c in d.get("premises", []))
    except (KeyError, TypeError, AttributeError) as e:
        raise ProofFileError(f"malformed proof node: {e}") from None
    return ProofTree(conclusion, rule, params, premises)


def load_proof(path: str) -> ProofTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProofFileError(f"{path}: {e}") from None
    return tree_from_dict(doc)


def save_proof(t: ProofTree, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(t), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Backward proof search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProveResult:
    tree: Optional[ProofTree]
    visited: int
    cache_hits: int = 0
    loop_prunes: int = 0
    budget: Optional[str] = None   # what stopped an unknown search: "visited", "depth" or None

    @property
    def proved(self) -> bool:
        return self.tree is not None


_ENGINE_NOMINAL = re.compile(r"^_n\d+$")


def _nominals_in_order(f: Formula) -> list[str]:
    if isinstance(f, RoleAssertion):
        return [f.subject, f.object]
    if isinstance(f, NominalAssertion):
        return [f.nominal] + _nominals_in_order(f.body)
    return []


def _rename_formula(f: Formula, mapping: dict) -> Formula:
    if isinstance(f, RoleAssertion):
        return RoleAssertion(mapping.get(f.subject, f.subject), f.role,
                             mapping.get(f.object, f.object))
    if isinstance(f, NominalAssertion):
        return NominalAssertion(mapping.get(f.nominal, f.nominal),
                                _rename_formula(f.body, mapping))
    return f


def _binary_candidates(rules: tuple, seq: Sequent, shapes) -> Iterator:
    for rule in rules:
        op, left, _ = _BINARY_RULES[rule]
        for m, nominal, c in shapes:
            if isinstance(c, op):
                yield (("n-" if nominal else "") + rule,
                       RuleParams(principal=m) if left else _NO_PARAMS,
                       _binary(rule, seq, m, _split_binary(m, op, nominal)))


class _Search:
    """Depth-first backward search with loop pruning and a failure cache.

    A failed call returns its culprits: the keys of the ancestors whose
    loop prune the failure relied on (running out of depth relies on
    none).  Each failure is cached under its key with its depth and
    culprits, and a later visit with no more depth, whose ancestors
    include those culprits, fails at once: the failure relied on no
    other ancestor, further ancestors can only prune more, and less
    depth can only remove proofs.  Only a search stopped by the visited
    cap leaves its failures uncached.
    """

    def __init__(self, root: Sequent, max_visited: int):
        self.max_visited = max_visited
        self.visited = self.cache_hits = self.loop_prunes = 0
        self.exhausted = self.depth_cut = False
        self.failed: dict[Sequent, list[tuple[int, frozenset]]] = {}
        self.used_nominals = set(nominals_of(root))
        self.counter = count()

    def fresh_nominal(self) -> str:
        while True:
            name = f"_n{next(self.counter)}"
            if name not in self.used_nominals:
                self.used_nominals.add(name)
                return name

    def normalize(self, seq: Sequent, members: list) -> Sequent:
        order: list[str] = []
        for f in members + [seq.succedent]:
            for nom in _nominals_in_order(f):
                if _ENGINE_NOMINAL.match(nom) and nom not in order:
                    order.append(nom)
        if not order:
            return seq
        mapping = {n: f"_c{i}" for i, n in enumerate(order)}
        return Sequent(frozenset(_rename_formula(f, mapping) for f in seq.antecedent),
                       _rename_formula(seq.succedent, mapping))

    def prove(self, seq: Sequent, depth: int,
              ancestors: frozenset) -> tuple[Optional[ProofTree], Optional[frozenset]]:
        """(tree, None) on success, (None, culprits) on failure, and
        (None, None) once the visited cap is spent."""
        if self.exhausted:
            return None, None
        members = sorted(seq.antecedent, key=render)
        key = self.normalize(seq, members)
        if key in ancestors:
            self.loop_prunes += 1
            return None, frozenset((key,))
        entries = self.failed.setdefault(key, [])
        for d, c in entries:
            if d >= depth and c <= ancestors:
                self.cache_hits += 1
                return None, c
        self.visited += 1
        if self.visited > self.max_visited:
            self.exhausted = True
            return None, None
        culprits = frozenset()
        self.depth_cut |= depth == 0
        if depth > 0:
            inner = ancestors | {key}
            for rule, params, subgoals in self._candidates(seq, members):
                trees = []
                for sub in subgoals:
                    t, c = self.prove(sub, depth - 1, inner)
                    if t is None:
                        if c is None:
                            return None, None
                        culprits |= c
                        break
                    trees.append(t)
                else:
                    return ProofTree(seq, rule, params, tuple(trees)), None
            culprits -= {key}
        if not any(d >= depth and c <= culprits for d, c in entries):
            entries[:] = [(d, c) for d, c in entries if not (d <= depth and culprits <= c)]
            entries.append((depth, culprits))
        return None, culprits

    def _candidates(self, seq: Sequent, members: list) -> Iterator[tuple[str, RuleParams, tuple]]:
        ant, succ = seq.antecedent, seq.succedent
        if succ in ant:
            yield "axiom", _NO_PARAMS, ()
            return
        shapes, goal = [_shape(m) for m in members], [_shape(succ)]
        if any(isinstance(c, Bot) for _, _, c in shapes):
            yield "bot-l", _NO_PARAMS, ()
            return

        # invertible decompositions first
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

        # branching / non-invertible choices
        yield from _binary_candidates(("or1-r", "or2-r"), seq, goal)

        edges = [r for r in members if isinstance(r, RoleAssertion)]
        for r in edges:
            premises = _exists_r(seq, r)
            if premises:
                yield "exists-r", RuleParams(role=r.role, nominal=r.object), premises

        yield from _binary_candidates(("sub-l",), seq, shapes)

        for m in [m for m, nominal, c in shapes if nominal and isinstance(c, Forall)]:
            for r in edges:
                added = _forall_l(m, r)
                if added and added not in ant:
                    yield ("forall-l", RuleParams(principal=m, role=r.role,
                                                  nominal=r.object), (seq.with_extra(added),))

        yield from self._promotions(seq, members)

    def _promotions(self, seq: Sequent, members) -> Iterator:
        succ = seq.succedent
        concepts = [m for m in members if isinstance(m, ConceptF)]
        assertions = [m for m in members if not isinstance(m, ConceptF)]

        q = succ.concept if isinstance(succ, ConceptF) else None
        if isinstance(q, (Exists, Forall)):
            def boxed(cs) -> bool:
                return all(isinstance(c.concept, Forall) and c.concept.role == q.role for c in cs)

            def premise() -> tuple:
                return (Sequent(frozenset({ConceptF(c.concept.body) for c in concepts})
                                | frozenset(assertions), ConceptF(q.body)),)
            if isinstance(q, Forall) and boxed(concepts):
                yield "p-forall", RuleParams(role=q.role), premise()
            for alpha in concepts if isinstance(q, Exists) else ():
                if (isinstance(alpha.concept, Exists) and alpha.concept.role == q.role
                        and boxed(c for c in concepts if c != alpha)):
                    yield ("p-exists", RuleParams(principal=ConceptF(alpha.concept.body),
                                                  role=q.role), premise())

        if isinstance(succ, NominalAssertion) and isinstance(succ.body, ConceptF) and not concepts:
            # un-prefix the x : C members
            x = succ.nominal
            prem_ant = frozenset(m.body if _nom_concept(m) and m.nominal == x else m
                                 for m in assertions)
            yield ("p-nom", RuleParams(prefix=x), (Sequent(prem_ant, succ.body),))


def prove(s: Sequent, max_depth: int = 24, max_visited: int = 100_000) -> ProveResult:
    """Bounded, deterministic, cut-free backward search.

    Returns a tree whose root is s and which check_proof accepts, or no
    tree at all; exhausting either budget is an honest unknown, never a
    refutation.
    """
    search = _Search(s, max_visited)
    tree, _ = search.prove(s, max_depth, frozenset())
    budget = "visited" if search.exhausted else "depth" if tree is None and search.depth_cut else None
    return ProveResult(tree, search.visited, search.cache_hits, search.loop_prunes, budget)


def find_countermodel(s: Sequent, sig: Signature,
                      tbox_global: bool = True) -> Optional[Interpretation]:
    """First enumerated model on which s fails, None if all satisfy it."""
    return entails(enumerate_models(sig), s, tbox_global)
