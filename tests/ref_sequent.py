"""The sequent rules as they stood before the rule table, kept verbatim as
the reference for the checker and the search: ``ref_check_step`` is the
previous ``check_step``, and the search reference in ``test_prover.py``
builds its candidates from the previous backward helpers below.  Only
the ``RuleParams`` record is taken from the code under test."""

import re
from typing import Iterator, Optional, Sequence

from ialc.sequent import RuleParams
from ialc.syntax import (
    And, Bot, ConceptF, Exists, Forall, Formula, NominalAssertion,
    Or, RoleAssertion, Sequent, Subs, nominals_of,
)

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


_NO_PARAMS = RuleParams()


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


def ref_check_step(rule: str, params: Optional[RuleParams],
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
