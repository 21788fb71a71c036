"""Constructive finite interpretations and validity.

An interpretation carries a finite set of entities, a refinement
preorder, one binary relation per role, hereditary atom extensions, and
an assignment of nominals to entities.  Concept extension follows the
constructive clauses: negation and subsumption quantify over all
refinements of the evaluation point, ``all R.C`` quantifies refinements
and then successors, ``some R.C`` looks at direct successors only.

Role relations must interact with refinement through two frame
conditions:

    F1: w <= w' and w R v   implies some v' with w' R v' and v <= v'
    F2: v <= v' and w R v   implies some w' with w' R v' and w <= w'

Sequent validity quantifies a vector of worlds above the interpretation
of each outer nominal (shared across occurrences of the same nominal)
plus one world for pure-concept members; antecedent subsumption concepts
may optionally be read globally (the theory reading).

Bit rows are the only stored form of an interpretation: world i of
``worlds`` is bit i, and up-sets, role successor rows, atom and concept
extensions are ints; the pair and set fields are views computed from
them.  A relation is its bit rows plus its ``none`` table, filled on
first lookup: the worlds none of whose successors meet a mask.  A model
is the kernel of its frame (worlds, preorder and role rows), shared by
every model on the frame, plus atom masks and nominals.
One fault generator holds the frame laws for validation, model loading
and model generation (a failing model's report lists its faults in the
order ``validate_interpretation`` states), beside one Warshall closure.
A sequent is compiled once into a bottom-up program, keyed on the
hash-consed syntax nodes (one entry per distinct subconcept); one rule
gives the lanes of a view on which it fails: a kernel views one model,
``_Lanes`` a frame's models, a byte each (bitslicing: Biham, FSE 1997).
"""

from __future__ import annotations

import json
import os
import stat
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .syntax import (
    And, Atom, Bot, Concept, ConceptF, Exists, Forall, Formula, NominalAssertion, Not, Or,
    RoleAssertion, Sequent, Subs, Top, _walk, outer_nominal,
)

__all__ = [
    "Interpretation", "Violation", "ValidationReport", "UnassignedNominalError", "ModelFileError",
    "validate_interpretation", "extension", "satisfies", "sequent_valid", "entails", "load_model",
    "save_model", "model_to_dict", "model_from_dict",
]

World = Union[int, str]


class UnassignedNominalError(Exception):
    """A formula mentions a nominal the interpretation does not assign."""

    def __init__(self, nominal: str):
        self.nominal = nominal
        super().__init__(f"nominal {nominal!r} is not assigned to any entity")


# ---------------------------------------------------------------------------
# Bit rows: one closure, one fault generator
# ---------------------------------------------------------------------------

def _bits(m: int):
    """Positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _image(rows, m: int) -> int:
    """Union of the rows at the positions in m (the up-closure of m)."""
    out = 0
    for i in _bits(m):
        out |= rows[i]
    return out


def _none(rows, m: int) -> int:
    """Positions whose row misses every bit of m."""
    return sum(1 << i for i, r in enumerate(rows) if not r & m)


class _Rows(dict):
    """A relation: its bit rows plus its ``none`` table, ``r[m] ==
    _none(r.rows, m)``, each entry filled on first lookup.  It holds only
    ints, so a dropped relation is freed without the collector.  An unread
    table is empty and falsy: test a relation against None, not for truth."""
    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        self.rows = rows

    def __missing__(self, m: int) -> int:
        return self.setdefault(m, _none(self.rows, m))

    def __eq__(self, other):
        return self.rows == other.rows if isinstance(other, _Rows) else NotImplemented

    def __ne__(self, other):
        return self.rows != other.rows if isinstance(other, _Rows) else NotImplemented


_empty = lru_cache(maxsize=None)(lambda n: _Rows((0,) * n))
_total = lru_cache(maxsize=None)(lambda n: _Rows(((1 << n) - 1,) * n))
_positions = lru_cache(maxsize=64)(lambda worlds: {w: i for i, w in enumerate(worlds)})


def _closed_rows(rows) -> tuple[int, ...]:
    """Reflexive-transitive closure of a relation's bit rows (Warshall)."""
    rows = [r | 1 << i for i, r in enumerate(rows)]
    for j, row in enumerate(rows):
        for i, r in enumerate(rows):
            if r >> j & 1:
                rows[i] = r | row
    return tuple(rows)


def _faults(up, atoms: Mapping = {}, roles: Mapping = {}):
    """Every fault of the frame laws on bit rows, as (kind, names,
    positions): heredity of each atom's mask, F1 and F2 of each role's
    successor rows, and reflexivity and transitivity of the refinement
    rows up, last: a filter of candidate atoms or roles over a known
    preorder rejects most of them before it.  A lawful frame yields
    nothing, so a yes/no check stops at the first fault."""
    for name, m in atoms.items():
        for w in _bits(m):
            if up[w] & ~m:
                for v in _bits(up[w] & ~m):
                    yield "heredity", (name,), (w, v)
    for name, succ in roles.items():
        # per edge w R v: the refinements of w with no successor in the cone
        # of v (F1), and those of v that no refinement of w reaches (F2)
        blind = {c: _none(succ, c) for c in set(up)} if any(succ) else {}
        for w, row in enumerate(succ):
            reached = _image(succ, up[w]) if row else 0
            for v in _bits(row):
                if up[w] & blind[up[v]]:
                    for w2 in _bits(up[w] & blind[up[v]]):
                        yield "F1", (name,), (w, w2, v)
                if up[v] & ~reached:
                    for v2 in _bits(up[v] & ~reached):
                        yield "F2", (name,), (w, v, v2)
    for i, r in enumerate(up):
        if not r >> i & 1:
            yield "reflexivity", (), (i,)
    for a, r in enumerate(up):
        for b in _bits(r):
            if up[b] & ~r:
                for d in _bits(up[b] & ~r):
                    yield "transitivity", (), (a, b, d)


class _Kernel:
    """Bit rows of one frame: its worlds, and its preorder and roles as
    relations.  The frame's models share it, the view of one for evaluation;
    as on ``_Lanes``, ``void[m]`` is full on the lanes where m is empty."""
    __slots__ = ("worlds", "full", "up", "roles")
    void = property(lambda k: _total(len(k.worlds)))
    # a world's position: one dict per worlds tuple, shared, built when pos first asks
    index = property(lambda k: _positions(k.worlds))

    def __init__(self, worlds: tuple, up: _Rows, roles: dict):
        self.worlds, self.up, self.roles = worlds, up, roles
        self.full = (1 << len(worlds)) - 1

    def pos(self, w: World) -> int:
        try:
            return self.index[w]
        except (KeyError, TypeError):
            raise ValueError(f"entity {w!r} is not in the domain") from None

    def rel(self, role: str) -> _Rows:
        """The rows of role; an undeclared role is the empty relation, one per
        world count, and stays undeclared."""
        return self.roles[role] if role in self.roles else _empty(len(self.worlds))

    def cover(self, role: str) -> _Rows:
        """``cover(r)[m]``: the worlds whose role successors include m."""
        return _Rows(tuple(self.full & ~r for r in self.rel(role).rows))

    def members(self, m: int) -> tuple:
        return tuple(w for i, w in enumerate(self.worlds) if m >> i & 1)

    def pairs(self, rows) -> frozenset:
        return frozenset((w, v) for w, row in zip(self.worlds, rows) for v in self.members(row))


class Interpretation:
    """A finite interpretation: its frame's kernel, atom masks and nominals'
    entities.  The pair and set fields are views of the rows and masks."""
    __slots__ = ("_k", "_atoms", "nominals")

    def __init__(self, kernel: _Kernel, atoms: Mapping[str, int], nominals: Mapping[str, World]):
        self._k, self._atoms, self.nominals = kernel, atoms, nominals

    @staticmethod
    def make(worlds: Iterable[World],
             leq: Iterable[tuple[World, World]] = (),
             roles: Mapping[str, Iterable[tuple[World, World]]] | None = None,
             atoms: Mapping[str, Iterable[World]] | None = None,
             nominals: Mapping[str, World] | None = None) -> "Interpretation":
        """Normalize and sanity-check field shapes (not the frame laws),
        and build the bit rows."""
        ws, up, role_rows, masks = _shapes(worlds, leq, roles or {}, atoms or {})
        return Interpretation(_Kernel(ws, _Rows(up), role_rows), masks, dict(nominals or {}))

    @property
    def worlds(self) -> tuple[World, ...]:
        return self._k.worlds

    @property
    def leq(self) -> frozenset:
        """Refinement pairs (w, v): w <= v."""
        return self._k.pairs(self._k.up.rows)

    @property
    def roles(self) -> Mapping[str, frozenset]:
        return {r: self._k.pairs(rel.rows) for r, rel in self._k.roles.items()}

    @property
    def atoms(self) -> Mapping[str, frozenset]:
        return {a: frozenset(self._k.members(m)) for a, m in self._atoms.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        k, o = self._k, other._k
        return ((k.worlds, k.up, k.roles, self._atoms, self.nominals)
                == (o.worlds, o.up, o.roles, other._atoms, other.nominals))

    def entity_of(self, nominal: str) -> World:
        try:
            return self.nominals[nominal]
        except KeyError:
            raise UnassignedNominalError(nominal) from None


def _shapes(worlds: Iterable[World], leq, roles: Mapping, atoms: Mapping) -> tuple:
    """The worlds, refinement rows, role ``_Rows`` and atom masks of the fields."""
    ws = tuple(worlds)
    if not ws:
        raise ValueError("interpretation needs a nonempty entity set")
    index = {w: i for i, w in enumerate(ws)}
    if len(index) < len(ws):
        raise ValueError(f"entity set lists equal entities twice: {list(ws)!r}")

    def rows(pairs, what: str) -> tuple:
        out = [0] * len(ws)
        for (a, b) in pairs:
            if a not in index or b not in index:
                raise ValueError(f"{what} {(a, b)!r} outside the entity set")
            out[index[a]] |= 1 << index[b]
        return tuple(out)

    up = rows(leq, "refinement pair")
    role_rows = {r: _Rows(rows(rel, f"role {r}: pair")) for r, rel in roles.items()}
    masks = {}
    for a, ext in atoms.items():
        ext = set(ext)
        if not ext <= index.keys():
            raise ValueError(f"atom {a}: extension outside the entity set")
        masks[a] = sum(1 << index[w] for w in ext)
    return ws, up, role_rows, masks


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    kind: str          # reflexivity | transitivity | heredity | F1 | F2 | dangling-nominal
    witnesses: tuple

    def __str__(self):
        return f"{self.kind}{self.witnesses!r}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "; ".join(map(str, self.violations)) if self.violations else "ok"


# per kind of fault, its rank in a report (F1 and F2 of a role together)
# and the pairs of its witnesses whose reprs sort it; reflexivity has none
# and keeps the fault generator's model order (the sort is stable)
_ORDER = {"reflexivity": (0, ()), "transitivity": (1, ((0, 1), (1, 2))),
          "heredity": (2, ((0, 1),)), "F1": (3, ((0, 1), (0, 2))), "F2": (3, ((1, 2), (0, 1)))}


def validate_interpretation(I: Interpretation) -> ValidationReport:
    """Check the preorder laws, heredity, F1/F2, and nominal targets.

    One fault generator holds the frame laws for validation, model loading
    and model generation; its first fault decides.  Only a failing model
    has all its violations listed, with witnesses: reflexivity in model
    order; transitivity; heredity, then F1 and F2 (F1 first), per atom or
    role in name order; each of these by the reprs of its witness pairs
    (a <= b, b <= d; w <= v; w <= w2, w R v; v <= v2, w R v); dangling
    nominals last, by name."""
    k, ws = I._k, I.worlds
    faults = partial(_faults, k.up.rows, I._atoms, {r: rel.rows for r, rel in k.roles.items()})
    # equality-based scan: stays total even for malformed targets
    dangling = tuple(Violation("dangling-nominal", (x, t)) for x, t in sorted(I.nominals.items())
                     if not any(t == w for w in ws))
    if not dangling and not any(faults()):
        return ValidationReport(())

    def key(fault):
        kind, names, at = fault
        rank, pairs = _ORDER[kind]
        return rank, names, kind, [repr((ws[at[i]], ws[at[j]])) for i, j in pairs]

    return ValidationReport(tuple(
        Violation(kind, names + tuple(ws[p] for p in at))
        for kind, names, at in sorted(faults(), key=key)) + dangling)


# ---------------------------------------------------------------------------
# Compiled concepts and formulas
# ---------------------------------------------------------------------------

# one clause per constructor, on a view k (a kernel or lanes), atom masks t and values
# v of the program so far; a and b are child indices, or a name for Atom and roles
_CLAUSES = {
    And: lambda k, t, v, a, b: v[a] & v[b],
    Or: lambda k, t, v, a, b: v[a] | v[b],
    Subs: lambda k, t, v, a, b: k.up[v[a] & ~v[b]],
    Not: lambda k, t, v, a, b: k.up[v[a]],
    Atom: lambda k, t, v, a, b: t.get(a, 0),
    Exists: lambda k, t, v, a, b: k.full & ~k.rel(a)[v[b]],
    # no refinement may reach a world with a successor outside the body
    Forall: lambda k, t, v, a, b: k.up[k.full & ~k.rel(a)[k.full & ~v[b]]],
    Top: lambda k, t, v, a, b: k.full,
    Bot: lambda k, t, v, a, b: 0,
}


def _intern(c: Concept, ids: dict) -> int:
    """Index of the node c in the program ids, adding its subconcepts
    first: ids maps each concept node to (index, clause, a, b)."""
    op = ids.get(c)
    if op is None:
        if type(c) not in _CLAUSES:
            raise TypeError(f"not a concept: {c!r}")
        args = [_intern(x, ids) if isinstance(x, Concept) else x for x in c.fields]
        op = ids[c] = (len(ids), _CLAUSES[type(c)], *args, *[None] * (2 - len(args)))
    return op[0]


def _values(k, t: Mapping, ops: tuple) -> list[int]:
    """Extension masks of a compiled program on the view k with atom masks t, bottom-up."""
    v: list[int] = []
    for _, clause, a, b in ops:
        v.append(clause(k, t, v, a, b))
    return v


class _Bytewise:
    """``t[m]``: the ``none`` table of rows on at most 8 worlds applied to each
    of the size bytes of m (none of m is none of its lowest bit and the rest)."""
    __slots__ = ("table", "size")

    def __init__(self, rows: tuple, size: int):
        t = bytearray(256)
        for m in range(1 << len(rows)):
            low = m & -m
            t[m] = _none(rows, m) if m == low else t[low] & t[m ^ low]
        self.table, self.size = bytes(t), size

    def __getitem__(self, m: int) -> int:
        return int.from_bytes(m.to_bytes(self.size, "little").translate(self.table), "little")


class _Lanes(NamedTuple):
    """The view of every model of the frame k at once: lane i is its i-th
    model, byte i of a mask its world mask there.  The frames on a preorder
    share the other fields (``none`` tables of up and the total relation)."""
    size: int
    full: int
    up: _Bytewise
    void: _Bytewise
    atoms: dict
    anchors: dict
    k: Optional[_Kernel] = None

    @classmethod
    def of(cls, up: tuple, models: list) -> _Lanes:
        """Lane i the i-th of models, (atom masks, nominal -> world) pairs on up (<= 8 worlds)."""
        full, size, n = (1 << len(up)) - 1, len(models), len(up)
        pack = lambda lanes: int.from_bytes(bytes(lanes), "little")
        return cls(size, pack([full] * size), _Bytewise(up, size), _Bytewise((full,) * n, size),
                   {a: pack(t[a] for t, _ in models) for a in models[0][0]},
                   {x: pack(up[w[x]] for _, w in models) for x in models[0][1]})

    def rel(self, role: str) -> _Bytewise:
        return _Bytewise(self.k.rel(role).rows, self.size)

    def cover(self, role: str) -> _Bytewise:
        return _Bytewise(self.k.cover(role).rows, self.size)

    def first(self, goal: _Goal, k: _Kernel) -> Optional[int]:
        """The first lane of the frame k on which goal fails, None if it holds on all."""
        failing = goal.failing(self._replace(k=k), self.atoms, self.anchors.__getitem__)
        return (failing & -failing).bit_length() - 1 >> 3 if failing else None


def _holds(k, v: list, ids: dict, anchor, f: Formula) -> int:
    """The lanes of the view k where a role or nominal assertion holds (above its anchors)."""
    if isinstance(f, RoleAssertion):
        # all refinement pairs above the two anchors are related
        zx, zy = anchor(f.subject), anchor(f.object)
        return k.void[zx & ~k.cover(f.role)[zy]]
    z, body = anchor(f.nominal), f.body
    if isinstance(body, ConceptF):
        return k.void[z & ~v[ids[body.concept][0]]]
    # a nested assertion re-anchors at its own nominal
    unanchored = k.void[z]
    return unanchored if unanchored == k.full else unanchored | _holds(k, v, ids, anchor, body)


def satisfies(I: Interpretation, f: Formula) -> bool:
    """Hybrid satisfaction: assertions hold hereditarily above their
    anchors; a bare concept holds when its extension is the whole domain.
    This is the validity of the sequent with f alone as its succedent."""
    return _Goal(Sequent(frozenset(), f), True).holds(I)


def extension(I: Interpretation, c: Concept) -> frozenset:
    """The set of entities satisfying c, per the constructive clauses."""
    ids: dict = {}
    top = _intern(c, ids)
    return frozenset(I._k.members(_values(I._k, I._atoms, tuple(ids.values()))[top]))


# ---------------------------------------------------------------------------
# Sequent validity
# ---------------------------------------------------------------------------

def _member(f: Formula, ids: dict) -> tuple:
    """(None, concept) for a concept read at the shared world, (x, concept)
    for ``x : C``, and (formula,) for role and nested assertions, whose
    truth depends on neither."""
    if isinstance(f, ConceptF):
        return None, _intern(f.concept, ids)
    if isinstance(f, NominalAssertion) and isinstance(f.body, ConceptF):
        return f.nominal, _intern(f.body.concept, ids)
    if not isinstance(f, (NominalAssertion, RoleAssertion)):
        raise TypeError(f"not a formula: {f!r}")
    for g in _walk(f, Formula):
        if isinstance(g, ConceptF):
            _intern(g.concept, ids)
    return (f.body if isinstance(f, NominalAssertion) else f,)


class _Goal:
    """A sequent compiled for evaluation on many interpretations.  The
    quantified worlds (w and one per outer nominal) are independent, so
    the sequent fails iff the antecedent leaves each some choice and the
    succedent fails at one of them.  Assertions that depend on no world
    come last and lazily: they may mention unassigned nominals."""

    def __init__(self, s: Sequent, tbox_global: bool):
        ids: dict = {}
        self.outers = sorted({outer_nominal(f) for f in (*s.antecedent, s.succedent)} - {None})
        self.at, self.tbox, self.fixed = [], [], []
        for f in s.antecedent:
            m = _member(f, ids)
            if len(m) == 1:
                self.fixed.append(m[0])
            elif tbox_global and isinstance(f, ConceptF) and isinstance(f.concept, Subs):
                self.tbox.append(m[1])
            else:
                self.at.append(m)
        self.succ = _member(s.succedent, ids)
        self.ids, self.ops = ids, tuple(ids.values())

    def failing(self, k, t: Mapping, anchor) -> int:
        """The lanes of the view k, with atom masks t and the up-sets of
        the nominals' entities from anchor, on which the sequent fails."""
        v, ids = _values(k, t, self.ops), self.ids
        choices = {None: k.full, **{x: anchor(x) for x in self.outers}}
        for x, c in self.at:
            choices[x] &= v[c]
        lanes = k.full
        for m in choices.values():
            lanes &= ~k.void[m]
        for c in self.tbox:
            lanes &= k.void[k.full & ~v[c]]
        for g in self.fixed:
            if lanes:
                lanes &= _holds(k, v, ids, anchor, g)
        if not lanes:
            return 0
        if len(self.succ) == 1:
            return lanes & ~_holds(k, v, ids, anchor, self.succ[0])
        x, c = self.succ
        return lanes & ~k.void[choices[x] & ~v[c]]

    def holds(self, I: Interpretation) -> bool:
        k = I._k
        return not self.failing(k, I._atoms, lambda x: k.up.rows[k.pos(I.entity_of(x))])


# compiled sequents, kept for callers that check one sequent on many models
_compiled = lru_cache(maxsize=8)(_Goal)


def sequent_valid(I: Interpretation, s: Sequent, tbox_global: bool = True) -> bool:
    """Validity of a sequent on one interpretation.

    Quantifies one world z_x >= x^I per outer nominal x of the sequent's
    assertions, and one shared world w for pure-concept members on both
    sides.  With tbox_global, antecedent members that are top-level
    subsumption concepts must hold at every world instead of just w.
    """
    return _compiled(s, tbox_global).holds(I)


def entails(models: Iterable[Interpretation], s: Sequent,
            tbox_global: bool = True) -> Optional[Interpretation]:
    """First model in the stream on which s fails; None if none fails."""
    goal = _Goal(s, tbox_global)
    return next((I for I in models if not goal.holds(I)), None)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

class ModelFileError(Exception):
    """The model file is malformed or fails frame validation."""


def model_to_dict(I: Interpretation) -> dict:
    return {
        "worlds": list(I.worlds),
        "leq": sorted([list(p) for p in I.leq]),
        "roles": {r: sorted([list(p) for p in rel]) for r, rel in sorted(I.roles.items())},
        "atoms": {a: sorted(ext, key=repr) for a, ext in sorted(I.atoms.items())},
        "nominals": {n: w for n, w in sorted(I.nominals.items())},
    }


def _shaped(value, kind: type, what: str, size: Optional[int] = None):
    """value if it is a JSON array (list) of size entries or object (dict)."""
    if isinstance(value, kind) and size in (None, len(value)):
        return value
    shape = "an object" if kind is dict else f"an array of {size} entries" if size else "an array"
    raise TypeError(f"{what} must be {shape}, got {value!r:.40}")


def model_from_dict(doc: dict, raw: bool = False) -> tuple[Interpretation, list[str]]:
    """Build an interpretation from a parsed model document, whose
    ``worlds`` and atom extensions are arrays, ``leq`` and role pairs arrays
    of two worlds, and ``roles``, ``atoms`` and ``nominals`` objects.
    Applies the reflexive-transitive closure to ``leq`` and the heredity
    closure to atom extensions (warning when that changes anything);
    rejects on frame violations unless raw is set.  Returns the model
    and a list of warnings."""
    warnings = []
    try:
        worlds = _shaped(doc["worlds"], list, "worlds")
        leq = [tuple(_shaped(p, list, "a leq pair", 2)) for p in doc.get("leq", [])]
        roles = {r: [tuple(_shaped(p, list, f"a pair of role {r}", 2)) for p in rel]
                 for r, rel in _shaped(doc.get("roles", {}), dict, "roles").items()}
        atoms = {a: _shaped(ext, list, f"atom {a}")
                 for a, ext in _shaped(doc.get("atoms", {}), dict, "atoms").items()}
        nominals = dict(_shaped(doc.get("nominals", {}), dict, "nominals"))
        ws, up, role_rows, masks = _shapes(worlds, leq, roles, atoms)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as e:
        raise ModelFileError(f"malformed model document: {e}") from None
    k = _Kernel(ws, _Rows(_closed_rows(up)), role_rows)
    I = Interpretation(k, {a: _image(k.up.rows, m) for a, m in masks.items()}, nominals)
    for a, m in masks.items():
        if I._atoms[a] != m:
            warnings.append(f"atom {a}: extension closed under refinement "
                            f"(added {sorted(k.members(I._atoms[a] & ~m), key=repr)})")
    if not raw:
        report = validate_interpretation(I)
        if not report.ok:
            raise ModelFileError(f"model violates frame conditions: {report}")
    return I, warnings


def load_model(path: str, raw: bool = False) -> tuple[Interpretation, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ModelFileError(f"{path}: {e}") from None
    return model_from_dict(doc, raw=raw)


def save_model(I: Interpretation, path: str) -> None:
    """Write ``model_to_dict(I)`` at path, by ``_save_json``: over an
    existing file in place.  A write that fails partway leaves the new
    text's start followed by the old file's tail (where truncating first
    would leave the start alone), and its error reaches the caller."""
    _save_json(model_to_dict(I), path)


def _pieces(doc, out: list, pad: str) -> None:
    """Append to out the text of doc as ``json.dumps(doc, indent=2)`` writes
    it (by the pure-Python encoder) at the nesting whose line break and
    indent is pad.  Strings go through json's C encoder; an ``int`` (not a
    ``bool``) is written as ``int.__repr__`` and an empty dict, list or
    tuple as ``{}`` or ``[]``, as json writes them; other scalars (``bool``,
    ``None``, floats) go through ``json.dumps``."""
    if isinstance(doc, str):
        out.append(_quote(doc))
    elif type(doc) is int:
        out.append(int.__repr__(doc))
    elif not isinstance(doc, (dict, list, tuple)):
        out.append(json.dumps(doc))
    elif not doc:
        out.append("{}" if isinstance(doc, dict) else "[]")
    elif isinstance(doc, dict):
        inner, sep = pad + "  ", "{"
        for k, v in doc.items():
            out += sep + inner, _quote(k), ": "
            _pieces(v, out, inner)
            sep = ","
        out.append(pad + "}")
    else:
        inner, sep = pad + "  ", "["
        for v in doc:
            out.append(sep + inner)
            _pieces(v, out, inner)
            sep = ","
        out.append(pad + "]")


def _json(doc) -> str:
    """The text ``json.dumps(doc, indent=2)`` of a document with string keys."""
    out: list = []
    _pieces(doc, out, "\n")
    return "".join(out)


def _save_json(doc, path: str) -> None:
    """Write ``_json(doc)`` and a newline to path: the proof and model files.
    An existing file is written over in place and then cut at the new end,
    not truncated first (for a 4 KB file on ext4 mounted with ``discard``
    that truncation took about 100 us, the write 20 us), so its inode, mode
    and symlink stay; a new file gets the mode of ``open(path, "w")``, and
    a device or pipe is only written.  A write that fails partway leaves
    the new text's start followed by the old file's tail, and raises."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(_json(doc) + "\n")
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
