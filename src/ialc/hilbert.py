"""Axiomatic (Hilbert-style) proofs: the axiom system, instantiation, checking.

``SCHEMATA`` is the one table of axiom schemata, keyed by the name a proof
file writes: nine standard intuitionistic propositional schemata (ipl
a1..a9) over the subsumption arrow, two relating primitive negation to
``C -> bot`` (ipl a10, a11), and five modal schemata (ik 1..ik 5) over a
role metavariable R.  The rules are modus ponens and necessitation.

Proof files, which are read here but never written, carry one step per line::

    <concept> ; ipl a1 [C := A, D := B]
    <concept> ; ik 4 [R := S]
    <concept> ; mp 2 3
    <concept> ; nec 5 R

Line references are 1-based and must point at earlier lines.  A line may
bind only its schema's metavariables; the instance is ``syntax.substitute``
of the bindings.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple, Union

from .syntax import (
    Atom, BOT, Concept, Exists, Forall, Not, And, Or, Subs,
    ParseError, _SPACE, _code_lines, _parse_line, _walk, names_of, parse_concept, render, substitute,
)

__all__ = [
    "SCHEMATA", "AXIOM_ROOTS", "SchemaError", "instance", "Axiom", "ModusPonens",
    "Necessitation", "ProofLine", "HilbertProof", "CheckResult", "check_hilbert_proof",
    "parse_hilbert_proof",
]


class SchemaError(Exception):
    """Unknown schema id or missing metavariable binding."""


_C, _D, _E = Atom("C"), Atom("D"), Atom("E")

SCHEMATA: dict[str, Concept] = {
    "ipl a1": Subs(_C, Subs(_D, _C)),
    "ipl a2": Subs(Subs(_C, Subs(_D, _E)), Subs(Subs(_C, _D), Subs(_C, _E))),
    "ipl a3": Subs(And(_C, _D), _C),
    "ipl a4": Subs(And(_C, _D), _D),
    "ipl a5": Subs(_C, Subs(_D, And(_C, _D))),
    "ipl a6": Subs(_C, Or(_C, _D)),
    "ipl a7": Subs(_D, Or(_C, _D)),
    "ipl a8": Subs(Subs(_C, _E), Subs(Subs(_D, _E), Subs(Or(_C, _D), _E))),
    "ipl a9": Subs(BOT, _C),
    "ipl a10": Subs(Not(_C), Subs(_C, BOT)),
    "ipl a11": Subs(Subs(_C, BOT), Not(_C)),
    "ik 1": Subs(Forall("R", Subs(_C, _D)), Subs(Forall("R", _C), Forall("R", _D))),
    "ik 2": Subs(Forall("R", Subs(_C, _D)), Subs(Exists("R", _C), Exists("R", _D))),
    "ik 3": Subs(Exists("R", Or(_C, _D)), Or(Exists("R", _C), Exists("R", _D))),
    "ik 4": Subs(Exists("R", BOT), BOT),
    "ik 5": Subs(Subs(Exists("R", _C), Forall("R", _D)), Forall("R", Subs(_C, _D))),
}

# The roots ``ialc axioms`` proves and golden/axiom*.prf derive by hand.
# Roots 1-5 are ik 2, 1, 4, 3, 5 with C := A, D := B.
AXIOM_ROOTS = {
    1: "all R.(A -> B) |- some R.A -> some R.B",
    2: "all R.(A -> B) |- all R.A -> all R.B",
    3: "|- x : (some R.bot -> bot)",
    4: "x : some R.(A | B) |- x : (some R.A | some R.B)",
    5: "|- x : ((some R.A -> all R.B) -> all R.(A -> B))",
}


def instance(name: str, subst: Mapping[str, Union[Concept, str]]) -> Concept:
    """The named schema with its metavariables substituted, each checked, in
    walk order, to be bound to a value of its kind; unused bindings are ignored."""
    if (template := SCHEMATA.get(name)) is None:
        raise SchemaError(f"unknown schema {name!r}")
    for node in _walk(template):
        if isinstance(node, Atom) and not isinstance(value := subst.get(node.name), Concept):
            raise SchemaError(f"missing binding for metavariable {node.name}"
                              if node.name not in subst else
                              f"metavariable {node.name} needs a concept, got {value!r}")
        if isinstance(node, (Exists, Forall)) and not isinstance(subst.get(node.role), str):
            raise SchemaError(f"missing binding for role metavariable {node.role}"
                              if node.role not in subst else
                              f"role metavariable {node.role} needs a role name")
    return substitute(template, subst)


# ---------------------------------------------------------------------------
# Proof objects
# ---------------------------------------------------------------------------

# Justifications: an instance of the named schema, modus ponens from line i
# proving C and line j proving C -> D, necessitation of line i.
class Axiom(NamedTuple): name: str; subst: tuple[tuple[str, Union[Concept, str]], ...]
class ModusPonens(NamedTuple): i: int; j: int
class Necessitation(NamedTuple): i: int; role: str


class ProofLine(NamedTuple): concept: Concept; justification: Axiom | ModusPonens | Necessitation
class HilbertProof(NamedTuple): lines: tuple[ProofLine, ...]


class CheckResult(NamedTuple):
    ok: bool
    line: int | None = None        # 1-based first bad line
    reason: str | None = None

    def __str__(self):
        return "accepted" if self.ok else f"rejected at line {self.line}: {self.reason}"


def check_hilbert_proof(p: HilbertProof) -> CheckResult:
    """Accept iff every line is a schema instance or a correct rule
    application over strictly earlier lines."""
    for idx, line in enumerate(p.lines, start=1):
        j = line.justification
        if isinstance(j, Axiom):
            try:
                want = instance(j.name, dict(j.subst))
            except SchemaError as e:
                return CheckResult(False, idx, str(e))
            atoms, roles, _ = names_of(SCHEMATA[j.name])
            if unused := [k for k, _ in j.subst if k not in atoms and k not in roles]:
                return CheckResult(False, idx, f"the schema has no metavariable {unused[0]}")
            if line.concept != want:
                return CheckResult(False, idx,
                                   f"stated concept is not the schema instance {render(want)}")
        elif isinstance(j, ModusPonens):
            if not (1 <= j.i < idx and 1 <= j.j < idx):
                return CheckResult(False, idx, "modus ponens must cite earlier lines")
            premise = p.lines[j.i - 1].concept
            implication = p.lines[j.j - 1].concept
            if implication != Subs(premise, line.concept):
                return CheckResult(False, idx,
                                   f"line {j.j} is not {render(premise)} -> {render(line.concept)}")
        elif isinstance(j, Necessitation):
            if not 1 <= j.i < idx:
                return CheckResult(False, idx, "necessitation must cite an earlier line")
            if line.concept != Forall(j.role, p.lines[j.i - 1].concept):
                return CheckResult(False, idx,
                                   f"concept is not all {j.role}. of line {j.i}")
        else:
            return CheckResult(False, idx, f"unknown justification {j!r}")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Proof files
# ---------------------------------------------------------------------------

_ROLE_RE = re.compile(r"[A-Z][A-Za-z0-9_']*")
_MP_RE = re.compile(rf"^mp[{_SPACE}]+([0-9]+)[{_SPACE}]+([0-9]+)$")
_NEC_RE = re.compile(rf"^nec[{_SPACE}]+([0-9]+)[{_SPACE}]+({_ROLE_RE.pattern})$")
_AX_RE = re.compile(rf"^(ipl[{_SPACE}]+[a-z0-9]+|ik[{_SPACE}]+[0-9]+)[{_SPACE}]*(\[.*\])?$")


def _parse_subst(text: str, lineno: int, start: int) -> tuple[tuple[str, Union[Concept, str]], ...]:
    """The bindings of a bracketed list that begins at column start + 1."""
    if not text[1:-1].strip(_SPACE):
        return ()
    out = {}
    start += 1
    for part in text[1:-1].split(","):
        if ":=" not in part:
            raise ParseError(f"bad binding {part.strip(_SPACE)!r}", lineno,
                             start + 1 + len(part) - len(part.lstrip(_SPACE)))
        name, value = part.split(":=", 1)
        key, at = name.strip(_SPACE), start + part.index(":=") + 2
        if key in out or not _ROLE_RE.fullmatch(key):   # named like a role
            raise ParseError(f"{key} is bound twice" if key in out else
                             f"bad metavariable name {key!r}", lineno,
                             start + 1 + len(name) - len(name.lstrip(_SPACE)))
        if key != "R":
            out[key] = _parse_line(parse_concept, value, lineno, at)
        elif _ROLE_RE.fullmatch(value.strip(_SPACE)):
            out[key] = value.strip(_SPACE)
        else:
            raise ParseError(f"R needs one role name, not {value.strip(_SPACE)!r}", lineno,
                             at + 1 + len(value) - len(value.lstrip(_SPACE)))
        start += len(part) + 1
    return tuple(out.items())


def parse_hilbert_proof(text: str) -> HilbertProof:
    lines = []
    for lineno, code in _code_lines(text):
        if ";" not in code:
            raise ParseError("expected '<concept> ; <justification>'", lineno, 1)
        concept_text, just_code = code.split(";", 1)
        concept = _parse_line(parse_concept, concept_text, lineno)
        just_text = just_code.strip(_SPACE)
        just_at = len(concept_text) + 1 + len(just_code) - len(just_code.lstrip(_SPACE))
        if m := _MP_RE.match(just_text):
            just = ModusPonens(int(m.group(1)), int(m.group(2)))
        elif m := _NEC_RE.match(just_text):
            just = Necessitation(int(m.group(1)), m.group(2))
        elif m := _AX_RE.match(just_text):
            subst = _parse_subst(m.group(2), lineno, just_at + m.start(2)) if m.group(2) else ()
            just = Axiom(" ".join(m.group(1).split()), subst)
        else:
            raise ParseError(f"bad justification {just_text!r}", lineno, just_at + 1)
        lines.append(ProofLine(concept, just))
    if not lines:
        raise ParseError("no proof lines", 1, 1)
    return HilbertProof(tuple(lines))
