"""Sequent calculus: one rule table, proof trees, bounded backward search.

Antecedents are sets, so exchange and contraction are invisible;
weakening and cut are explicit rule nodes that are checkable but never
built by the search.  Rule labels:

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

Every rule but cut and weaken is written once, in ``_RULES``, as a
backward decomposition yielding each (label, params, premises) instance
on a conclusion; what the conclusion leaves open is asked of a chooser.
The search picks it: an engine-fresh witness (``_n0``, ``_n1``, ...),
each edge of the antecedent, the whole context for both sub-l premises,
every ``x : C`` unprefixed for p-nom.  ``check_step`` reads it off the
stated premises: the witness is a premise nominal absent from the
conclusion (so exists-l and forall-r witnesses are fresh), the exists-r
edge is the first premise's succedent, the sub-l premises may split the
context, and the p-nom premise may have any antecedent that lifts to the
conclusion's.  A stated param is compared only with the fields the
instance sets, so a ``role`` contradicting the quantifier is rejected.

``find_countermodel`` evaluates a sequent once on each enumerated frame
that can hold the first model to fail it (``modelgen.candidate``), for
all the frame's models at once, and reports the first failing model.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from itertools import count, islice
from typing import Iterator, NamedTuple, Optional, Sequence

from .modelgen import Signature, _lanes, candidate, enumerate_models
from .semantics import Interpretation, UnassignedNominalError, _compiled, _save_json
from .syntax import (
    And, Bot, ConceptF, Exists, Forall, Formula, NominalAssertion, Or, RoleAssertion, Sequent,
    Subs, _text, _walk, nominals_of, parse_formula, parse_sequent, render, substitute,
)

__all__ = [
    "RuleParams", "ProofTree", "CheckResult", "RULE_ARITY", "RULE_LABELS", "check_step",
    "check_proof", "prove", "DEFAULT_DEPTH", "DEFAULT_VISITED", "ProveResult", "find_countermodel",
    "tree_to_dict", "tree_from_dict", "parse_proof", "load_proof", "save_proof", "ProofFileError",
]

RULE_ARITY = {
    "axiom": 0, "bot-l": 0,
    "forall-r": 1, "forall-l": 1, "exists-r": 2, "exists-l": 1,
    "sub-r": 1, "sub-l": 2, "and-r": 2, "and-l": 1,
    "or1-r": 1, "or2-r": 1, "or-l": 2,
    "p-exists": 1, "p-forall": 1, "p-nom": 1,
    "cut": 2, "weaken": 1,
}

# every label, to the rule it instantiates: the propositional rules have a nominal variant
_RULE_OF = {r: r for r in RULE_ARITY} | {
    "n-" + r: r for r in ("sub-r", "sub-l", "and-r", "and-l", "or1-r", "or2-r", "or-l")}

RULE_LABELS = tuple(sorted(RULE_ARITY) + sorted(_RULE_OF.keys() - RULE_ARITY))


class RuleParams(NamedTuple):
    principal: Optional[Formula] = None   # the formula the rule acts on
    role: Optional[str] = None
    nominal: Optional[str] = None         # witness nominal (exists-l, forall-r, ...)
    prefix: Optional[str] = None          # the x of p-nom
    cut_formula: Optional[Formula] = None


_NO_PARAMS = RuleParams()


class ProofTree(NamedTuple):
    conclusion: Sequent
    rule: str
    params: RuleParams = _NO_PARAMS
    premises: tuple["ProofTree", ...] = ()


class CheckResult(NamedTuple):
    ok: bool
    path: Optional[tuple[int, ...]] = None   # premise indices from the root
    reason: Optional[str] = None

    def __str__(self):
        if self.ok:
            return "accepted"
        where = "root" if not self.path else "node " + ".".join(map(str, self.path))
        return f"rejected at {where}: {self.reason}"


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

def _shape(f: Formula) -> tuple:
    """(f, whether f is an assertion x : C, and its top concept C or None)."""
    if isinstance(f, NominalAssertion):
        return (f, True, f.body.concept) if isinstance(f.body, ConceptF) else (f, False, None)
    return f, False, getattr(f, "concept", None)


def _parts(m: Formula, nominal: bool, c) -> tuple:
    """The two components of the binary principal m with top concept c,
    hatted with the shared outer nominal for the nominal variants."""
    if nominal:
        return (NominalAssertion(m.nominal, ConceptF(c.left)),
                NominalAssertion(m.nominal, ConceptF(c.right)))
    return ConceptF(c.left), ConceptF(c.right)


# The propositional rules that keep their context: operator, principal on the
# left, and the premises' (antecedent, succedent) pairs from (antecedent,
# antecedent minus principal, a, b, succedent).
_BINARY_RULES = {
    "and-l": (And, True, lambda ant, rest, a, b, g: [(rest | {a, b}, g)]),
    "or-l": (Or, True, lambda ant, rest, a, b, g: [(rest | {a}, g), (rest | {b}, g)]),
    "and-r": (And, False, lambda ant, rest, a, b, g: [(ant, a), (ant, b)]),
    "sub-r": (Subs, False, lambda ant, rest, a, b, g: [(ant | {a}, b)]),
    "or1-r": (Or, False, lambda ant, rest, a, b, g: [(ant, a)]),
    "or2-r": (Or, False, lambda ant, rest, a, b, g: [(ant, b)]),
}


def _binary(rule: str) -> tuple:
    op, left, premises = _BINARY_RULES[rule]

    def instances(seq: Sequent, shapes: list, chooser) -> Iterator:
        ant, g = seq.antecedent, seq.succedent
        for m, nominal, c in shapes if left else [_shape(g)]:
            if isinstance(c, op):
                yield (("n-" if nominal else "") + rule,
                       RuleParams(principal=m) if left else _NO_PARAMS,
                       tuple(Sequent(frozenset(a), s) for a, s in
                             premises(ant, ant - {m} if left else ant, *_parts(m, nominal, c), g)))
    return (left, op), instances


def _axiom(seq: Sequent, shapes: list, chooser) -> Iterator:
    if seq.succedent in seq.antecedent:
        yield "axiom", _NO_PARAMS, ()


def _bot_l(seq: Sequent, shapes: list, chooser) -> Iterator:
    if any(isinstance(c, Bot) for _, _, c in shapes):
        yield "bot-l", _NO_PARAMS, ()


def _sub_l(seq: Sequent, shapes: list, chooser) -> Iterator:
    # the two premises may split the context
    for m, nominal, c in shapes:
        if isinstance(c, Subs):
            a, b = _parts(m, nominal, c)
            for left, right in chooser.contexts(seq, m, b):
                if left | right | {m} == seq.antecedent:
                    yield (("n-" if nominal else "") + "sub-l", RuleParams(principal=m),
                           (Sequent(left, a), Sequent(right | {b}, seq.succedent)))


def _exists_l(seq: Sequent, shapes: list, chooser) -> Iterator:
    for m, nominal, c in shapes:
        if nominal and isinstance(c, Exists):
            for y in chooser.witnesses(seq):
                yield ("exists-l", RuleParams(principal=m, role=c.role, nominal=y),
                       (Sequent((seq.antecedent - {m}) | {RoleAssertion(m.nominal, c.role, y),
                                                          NominalAssertion(y, ConceptF(c.body))},
                                seq.succedent),))


def _forall_r(seq: Sequent, shapes: list, chooser) -> Iterator:
    g, nominal, c = _shape(seq.succedent)
    if nominal and isinstance(c, Forall):
        for y in chooser.witnesses(seq):
            yield ("forall-r", RuleParams(role=c.role, nominal=y),
                   (Sequent(seq.antecedent | {RoleAssertion(g.nominal, c.role, y)},
                            NominalAssertion(y, ConceptF(c.body))),))


def _exists_r(seq: Sequent, shapes: list, chooser) -> Iterator:
    g, nominal, c = _shape(seq.succedent)
    if nominal and isinstance(c, Exists):
        for r in chooser.edges(shapes):
            if isinstance(r, RoleAssertion) and r.subject == g.nominal and r.role == c.role:
                yield ("exists-r", RuleParams(role=r.role, nominal=r.object),
                       (Sequent(seq.antecedent, r),
                        Sequent(seq.antecedent, NominalAssertion(r.object, ConceptF(c.body)))))


def _forall_l(seq: Sequent, shapes: list, chooser) -> Iterator:
    # x : all R.C and an edge R(x,y) of the antecedent add y : C
    for m, nominal, c in shapes:
        if nominal and isinstance(c, Forall):
            for r, _, _ in shapes:
                if isinstance(r, RoleAssertion) and r.subject == m.nominal and r.role == c.role:
                    yield ("forall-l", RuleParams(principal=m, role=r.role, nominal=r.object),
                           (seq.with_extra(NominalAssertion(r.object, ConceptF(c.body))),))


def _promoted(shapes: list, q) -> tuple:
    """The premise of a promotion to q: every concept member and q lose
    their outer modality, assertions pass through."""
    return (Sequent(frozenset(ConceptF(c.body) if isinstance(m, ConceptF) else m
                              for m, _, c in shapes), ConceptF(q.body)),)


def _boxes(shapes: list, role: str, but=None) -> bool:
    return all(isinstance(c, Forall) and c.role == role
               for m, _, c in shapes if isinstance(m, ConceptF) and m is not but)


def _p_forall(seq: Sequent, shapes: list, chooser) -> Iterator:
    _, nominal, q = _shape(seq.succedent)
    if not nominal and isinstance(q, Forall) and _boxes(shapes, q.role):
        yield "p-forall", RuleParams(role=q.role), _promoted(shapes, q)


def _p_exists(seq: Sequent, shapes: list, chooser) -> Iterator:
    _, nominal, q = _shape(seq.succedent)
    if not nominal and isinstance(q, Exists):
        for m, _, c in shapes:
            if (isinstance(m, ConceptF) and isinstance(c, Exists) and c.role == q.role
                    and _boxes(shapes, q.role, m)):
                yield ("p-exists", RuleParams(principal=ConceptF(c.body), role=q.role),
                       _promoted(shapes, q))


def _lift(f: Formula, x: str) -> Formula:
    return NominalAssertion(x, f) if isinstance(f, ConceptF) else f


def _p_nom(seq: Sequent, shapes: list, chooser) -> Iterator:
    # premise gamma |- delta, conclusion: every concept of both prefixed with x
    if any(isinstance(m, ConceptF) for m in seq.antecedent):
        return      # a lifted antecedent has no concept member
    for x, gamma, delta in chooser.unprefixed(seq):
        lifted = isinstance(delta, ConceptF) or any(isinstance(m, ConceptF) for m in gamma)
        yield "p-nom", RuleParams(prefix=x) if lifted else _NO_PARAMS, (Sequent(gamma, delta),)


# Every rule but cut and weaken, in the order the search tries them, as
# (principal, instances): principal is (on the left?, operator) of the
# formula the rule decomposes, None when there is none and the rule reads
# no shapes, and instances(conclusion, antecedent shapes, chooser) yields
# (label, params, premises) for each way the rule derives the conclusion.
_RULES = {
    "axiom": (None, _axiom), "bot-l": ((True, Bot), _bot_l),
    # invertible decompositions first (see _COMMITS)
    "and-l": _binary("and-l"), "exists-l": ((True, Exists), _exists_l),
    "and-r": _binary("and-r"), "sub-r": _binary("sub-r"), "or-l": _binary("or-l"),
    "forall-r": ((False, Forall), _forall_r),
    # branching / non-invertible choices
    "or1-r": _binary("or1-r"), "or2-r": _binary("or2-r"), "exists-r": ((False, Exists), _exists_r),
    "sub-l": ((True, Subs), _sub_l), "forall-l": ((True, Forall), _forall_l),
    "p-forall": ((False, Forall), _p_forall), "p-exists": ((False, Exists), _p_exists),
    "p-nom": (None, _p_nom),
}

# The steps whose premises are provable, by proofs the search builds, whenever
# their conclusion is: once a premise fails, no rule can prove the conclusion,
# so the search tries no other (``_Search.prove``).  The argument, by induction
# on a proof of the conclusion, permutes the step below that proof's last rule:
# - and-r: the premises keep the antecedent; an axiom on C & D is and-l and
#   two axioms.
# - and-l, or-l: the parts replace the principal in every node that holds it.
#   As a concept member the principal is no box, so it already blocks p-nom
#   and every promotion that its parts could; as an assertion it passes
#   promotions and p-nom at its nominal unprefixes it with its parts.  An
#   axiom on it becomes and-r, or1-r or or2-r over axioms.
# - forall-r, exists-l: the premise adds R(x,y) (exists-l also y : C, for its
#   principal) with a fresh y; these block nothing, since p-nom unprefixes
#   only the succedent's nominal and no node of the proof names y.  The one
#   last rule that does not permute is p-nom at x: p-forall above it, or
#   p-exists on the principal, is rebuilt as exists-r on R(x,y) (for p-exists),
#   forall-l on R(x,y) and p-nom at y.  An axiom on x : all R.C becomes
#   forall-l, on x : some R.C exists-r, over axioms.
# - sub-r is not covered: it adds C (x : C) to the antecedent, and the left
#   premise of sub-l keeps the whole context, so the argument needs weakening
#   by C there, which fails: C can block p-nom and the promotions
#   (``all R.(A & B) |- all R.A`` is proved, ``B ; all R.(A & B) |- all R.A`` not).
# Each n- variant follows from its rule.  The permuted proof can be taller (an
# axiom on a compound formula grows a step, a rebuilt promotion several), and
# a premise has a level less than its conclusion, so only a failure that did
# not rely on the depth budget commits.  A failure that relied on a loop prune
# commits under the same ancestors: its culprits become the conclusion's.
_COMMITS = frozenset({"and-l", "n-and-l", "exists-l", "and-r", "n-and-r",
                      "or-l", "n-or-l", "forall-r"})


class _Premises(tuple):
    """The stated premises of a step, as the chooser of check_step: what
    the conclusion leaves open is read off them."""

    def witnesses(self, seq: Sequent):
        # the eigenvariable is a premise nominal that is absent from the conclusion
        return frozenset().union(*map(nominals_of, self)) - nominals_of(seq)

    def edges(self, shapes: list):
        return (self[0].succedent,)

    def contexts(self, seq: Sequent, m: Formula, b: Formula):
        p1, p2 = self
        return ((p1.antecedent, p2.antecedent - {b}),)

    def unprefixed(self, seq: Sequent):
        (p,) = self
        return [(x, p.antecedent, p.succedent) for x in nominals_of(seq)
                if _lift(p.succedent, x) == seq.succedent
                and frozenset(_lift(m, x) for m in p.antecedent) == seq.antecedent]


def _agrees(stated: RuleParams, made: RuleParams) -> bool:
    """A stated param must match each field the instance sets."""
    for field in ("principal", "role", "nominal", "prefix"):
        m = getattr(made, field)
        if m is not None and getattr(stated, field) not in (None, m):
            return False
    return True


def _fault(rule: str, params: Optional[RuleParams],
           premises: Sequence[Sequent], conclusion: Sequent) -> Optional[str]:
    """None iff the stated label, params and premises are one of the
    rule's instances on the conclusion (cut and weaken are checked
    directly), else why not.  Params narrow the instances when given."""
    base = _RULE_OF.get(rule)
    if base is None:
        return f"unknown rule {rule!r}"
    if len(premises) != RULE_ARITY[base]:
        return f"{rule} needs {RULE_ARITY[base]} premises, got {len(premises)}"
    p = params or _NO_PARAMS
    ant, succ = conclusion.antecedent, conclusion.succedent

    if base == "weaken":
        (prem,) = premises
        ok = prem.succedent == succ and prem.antecedent <= ant
    elif base == "cut":
        p1, p2 = premises
        gamma = p1.succedent
        ok = (p.cut_formula in (None, gamma) and gamma in p2.antecedent
              and p2.succedent == succ and p1.antecedent | (p2.antecedent - {gamma}) == ant)
    else:
        # initial sequents leave nothing to choose, and principal-free rules read no shapes
        premises = _Premises(premises) if premises else ()
        principal, instances = _RULES[base]
        ok = any(label == rule and prem == premises and _agrees(p, made) for label, made, prem
                 in instances(conclusion, principal and [_shape(m) for m in ant], premises))
    return None if ok else f"{rule} does not derive {render(conclusion)}"


def check_step(rule: str, params: Optional[RuleParams],
               premises: Sequence[Sequent], conclusion: Sequent) -> bool:
    """True iff the step is one of the rule's instances (see ``_fault``)."""
    return _fault(rule, params, premises, conclusion) is None


def check_proof(t: ProofTree) -> CheckResult:
    """Accept iff every node instantiates its rule; first bad node wins
    (preorder: a node is reported before its premises)."""
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        fault = _fault(node.rule, node.params, [c.conclusion for c in node.premises],
                       node.conclusion)
        if fault is not None:
            return CheckResult(False, path, fault)
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], path + (i,)))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Proof files
# ---------------------------------------------------------------------------

class ProofFileError(Exception):
    pass


def tree_to_dict(t: ProofTree) -> dict:
    d: dict = {"rule": t.rule, "conclusion": render(t.conclusion)}
    params = {("cut" if k == "cut_formula" else k): render(v) if isinstance(v, Formula) else v
              for k, v in t.params._asdict().items() if v is not None}
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
        raw, premises = d.get("params", {}), d.get("premises", [])
        principal, cut = (parse_formula(raw[k]) if k in raw else None for k in ("principal", "cut"))
        params = RuleParams(principal, raw.get("role"), raw.get("nominal"), raw.get("prefix"), cut)
        for k in ("role", "nominal", "prefix"):
            if k in raw and not isinstance(raw[k], str):
                raise ProofFileError(f"{k} must be a string, got {raw[k]!r}")
        if not isinstance(premises, list):
            raise ProofFileError(f"premises must be an array, got {premises!r}")
        premises = tuple(map(tree_from_dict, premises))
    except (KeyError, TypeError, AttributeError, RecursionError) as e:
        raise ProofFileError(f"malformed proof node: {e}") from None
    return ProofTree(conclusion, rule, params, premises)


def parse_proof(text: str, path: str) -> ProofTree:
    """The tree of the JSON text of the proof file at path."""
    try:
        return tree_from_dict(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as e:
        raise ProofFileError(f"{path}: {e}") from None


def load_proof(path: str) -> ProofTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_proof(fh.read(), path)


def save_proof(t: ProofTree, path: str) -> None:
    """Write ``tree_to_dict(t)`` at path, by ``semantics._save_json``: over
    an existing file in place.  A write that fails partway leaves the new
    text's start followed by the old file's tail (where truncating first
    would leave the start alone), and its error reaches the caller:
    ``ialc prove --emit-proof`` then removes a regular file there and exits 3."""
    _save_json(tree_to_dict(t), path)


# ---------------------------------------------------------------------------
# Backward proof search
# ---------------------------------------------------------------------------

class ProveResult(NamedTuple):
    tree: Optional[ProofTree]
    visited: int
    cache_hits: int = 0
    loop_prunes: int = 0
    budget: Optional[str] = None   # what stopped an unknown search: "visited", "depth" or None
    committed: int = 0             # the conclusions that a failed invertible step failed

    @property
    def proved(self) -> bool:
        return self.tree is not None


# the culprit of a failure that relied on the depth budget, an ancestor of every branch
_DEPTH = "depth"
_ON_DEPTH = frozenset((_DEPTH,))


def _covers(failure: tuple[int, frozenset], depth: int, ancestors: frozenset) -> bool:
    """Whether a failure (its depth, its culprits) fails a visit at depth
    under these ancestors: one that relied on depth needs no more depth,
    any other fails at every depth."""
    d, culprits = failure
    return culprits <= ancestors and (d >= depth or _DEPTH not in culprits)


class _Search:
    """Depth-first backward search with loop pruning, a failure cache and
    commitment to invertible steps.

    A failed call returns its culprits: the keys of the ancestors whose
    loop prune the failure relied on, and ``_DEPTH`` when it relied on the
    depth budget, that is when its subtree reached depth 0 or reused a
    failure that did.  Each failure is cached under its key with its depth
    and culprits, and a later visit whose ancestors include those culprits,
    with no more depth unless the failure did not rely on depth, fails at
    once (``_covers``): the failure relied on no other ancestor, further
    ancestors can only prune more, and less depth can only remove proofs.
    When a premise of a ``_COMMITS`` step fails without relying on depth,
    no other rule is tried on the conclusion.  Only a search stopped by the
    visited cap leaves its failures uncached.
    """

    def __init__(self, root: Sequent, max_visited: int):
        self.max_visited = max_visited
        self.visited = self.cache_hits = self.loop_prunes = self.committed = 0
        self.exhausted = False
        self.failed: dict[Sequent, list[tuple[int, frozenset]]] = {}
        self.used_nominals = nominals_of(root)      # the root's names, which no witness takes
        self.made: set[str] = set()                 # the witnesses fresh_nominal made
        self.counter = count()
        self.engine: dict[Formula, tuple] = {}      # a formula's witnesses
        self.renamed: dict[tuple, Formula] = {}     # (formula, their new names) -> renamed

    def fresh_nominal(self) -> str:
        name = next(n for n in map("_n{}".format, self.counter) if n not in self.used_nominals)
        self.made.add(name)
        return name

    def normalize(self, seq: Sequent, members: list) -> Sequent:
        """seq with the witnesses this search made renamed #0, #1, ..., names no input can
        spell, in order of occurrence over the sorted members and the succedent."""
        engine, made, mapping, renamed = self.engine, self.made, {}, []
        for f in (*members, seq.succedent):
            noms = engine.get(f)
            if noms is None:
                # the witnesses f's assertions name, outermost first
                noms = engine[f] = tuple(n for g in _walk(f, Formula) for n in g.fields
                                         if n in made)
            for nom in noms:
                if nom not in mapping:
                    mapping[nom] = f"#{len(mapping)}"
            if noms:
                key = (f, *map(mapping.get, noms))
                f = self.renamed.get(key) or self.renamed.setdefault(key, substitute(f, mapping))
            renamed.append(f)
        return Sequent(frozenset(renamed[:-1]), renamed[-1]) if mapping else seq

    def prove(self, seq: Sequent, depth: int,
              ancestors: frozenset) -> tuple[Optional[ProofTree], Optional[frozenset]]:
        """(tree, None) on success, (None, culprits) on failure, and
        (None, None) once the visited cap is spent."""
        members = sorted(seq.antecedent, key=_text)
        key = self.normalize(seq, members)
        if key in ancestors:
            self.loop_prunes += 1
            return None, frozenset((key,))
        entries = self.failed.setdefault(key, [])
        for failure in entries:
            if _covers(failure, depth, ancestors):
                self.cache_hits += 1
                return None, failure[1]
        self.visited += 1
        if self.visited > self.max_visited:
            self.exhausted = True
            return None, None
        culprits = _ON_DEPTH if depth == 0 else frozenset()
        if depth > 0:
            inner = ancestors | {key}
            for rule, params, subgoals in self._candidates(seq, members):
                if subgoals == (seq,):
                    continue        # a premise that is its conclusion: forall-l adding nothing
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
                if rule in _COMMITS and _DEPTH not in c:
                    self.committed += 1
                    break
            culprits -= {key}
        if not any(_covers(failure, depth, culprits) for failure in entries):
            entries[:] = [failure for failure in entries
                          if not _covers((depth, culprits), *failure)]
            entries.append((depth, culprits))
        return None, culprits

    def _candidates(self, seq: Sequent, members: list) -> Iterator[tuple[str, RuleParams, tuple]]:
        shapes = [_shape(m) for m in members]
        # only rules whose principal operator occurs on its side can apply
        present = {(True, type(c)) for _, _, c in shapes} | {(False, type(_shape(seq.succedent)[2]))}
        for principal, instances in _RULES.values():
            if principal is None or principal in present:
                yield from instances(seq, shapes, self)

    # The chooser of the search: an engine-fresh witness, every edge of
    # the antecedent, the whole context, and every x : C unprefixed.

    def witnesses(self, seq: Sequent):
        return (self.fresh_nominal(),)

    def edges(self, shapes: list):
        return [r for r, _, _ in shapes if isinstance(r, RoleAssertion)]

    def contexts(self, seq: Sequent, m: Formula, b: Formula):
        return ((seq.antecedent, seq.antecedent - {m}),)

    def unprefixed(self, seq: Sequent):
        g, nominal, _ = _shape(seq.succedent)
        if not nominal:
            return ()
        return ((g.nominal, frozenset(m.body if _shape(m)[1] and m.nominal == g.nominal else m
                                      for m in seq.antecedent), g.body),)


# prove's budgets when none are given, and ialc prove's when no flag gives them
DEFAULT_DEPTH, DEFAULT_VISITED = 24, 100_000


def prove(s: Sequent, max_depth: int = DEFAULT_DEPTH,
          max_visited: int = DEFAULT_VISITED) -> ProveResult:
    """Bounded, deterministic, cut-free backward search.

    Returns a tree whose root is s and which check_proof accepts, or no tree
    at all; exhausting either budget is an honest unknown, never a refutation.
    """
    if max_depth < 0 or max_visited < 0:
        raise ValueError(f"budgets must be nonnegative: depth {max_depth}, visited {max_visited}")
    search = _Search(s, max_visited)
    tree, culprits = search.prove(s, max_depth, _ON_DEPTH)
    budget = "visited" if search.exhausted else "depth" if culprits and _DEPTH in culprits else None
    return ProveResult(tree, search.visited, search.cache_hits, search.loop_prunes, budget,
                       search.committed)


def find_countermodel(s: Sequent, sig: Signature, local: frozenset = frozenset(),
                      stats: Optional[dict] = None) -> Optional[Interpretation]:
    """First enumerated model on which s fails, read with local as in ``semantics._Goal``, None
    if all satisfy it (the one first-failing-model loop); sig must assign every nominal of s.
    It takes the stream a block at a time (``modelgen._lanes``, which judges a frame without
    roles once per process), evaluating a frame that ``modelgen.candidate`` keeps once from
    ``semantics._compiled``, a lane per model, and adds each block's sizes per world count, in
    stats or a throwaway dict, to the models ``enumerated`` and ``evaluated`` (lanes up to the
    countermodel) and the ``frames`` (kernels): defaultdicts, cheaper to make than Counters."""
    if missing := nominals_of(s) - set(sig.nominals):
        raise UnassignedNominalError(min(missing))
    stats = {} if stats is None else stats
    enumerated = stats.setdefault("enumerated", defaultdict(int))
    frames = stats.setdefault("frames", defaultdict(int))
    evaluated = stats.setdefault("evaluated", defaultdict(int))
    models, goal, up = enumerate_models(sig), _compiled(s, local), None
    for I in models:            # a block's first model
        k = I._k
        if k.up is not up:
            up, n = k.up, len(k.worlds)
            size, kernels, layout = _lanes(up.rows, sig.atoms, sig.nominals, len(sig.roles))
        frames[n] += kernels
        # lanes that view k: a frame without roles, judged in _lanes
        if layout is not None and (layout.k is k or candidate(k, sig)):
            lane = layout.first(goal, k)
            evaluated[n] += size if lane is None else lane + 1
            if lane is not None:
                enumerated[n] += lane + 1
                return next(islice(models, lane - 1, None)) if lane else I
        enumerated[n] += size
        deque(islice(models, size - 1), maxlen=0)
    return None
