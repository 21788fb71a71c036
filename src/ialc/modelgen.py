"""Exhaustive and random generation of validated interpretations.

Enumeration walks every interpretation over 1..max_worlds entities in a
fixed lexicographic order (world count, preorder bitmask, role bitmasks,
atom bitmasks, nominal assignment), keeping only role relations that
satisfy the frame conditions and only refinement-closed atom extensions.
Random generation rejection-samples roles against the frame conditions,
so both paths emit models that pass validation.

``candidate`` keeps the frames that can hold the first model on which
a sequent fails: first among their copies under a renaming of worlds,
and generated.  ``_lanes`` lays the models of a frame out as lanes, in
stream order, so the countermodel search evaluates a kept frame once.

A relation on n worlds is a bitmask over its n*n pairs, row by row, so
the mask splits directly into the bit rows of the semantics kernel, one
per frame.  Preorders and up-closed sets are filtered by the fault
generator that validation uses.  Frame-compatible relations are built
class by class from F1 and F2, the rows of a class found once per choice
of the rows above it.  All, atom dicts and lanes included, are cached
per preorder; ``count_models`` counts the stream from their sizes, and
neither builds a role table for a signature without roles.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import permutations, product
from operator import and_, or_
from typing import Iterator, NamedTuple, Optional

from .semantics import (Interpretation, _bits, _closed_rows, _faults, _image, _Kernel, _Lanes,
                        _none, _Rows)
from .syntax import Atom, Exists, Forall, NominalAssertion, RoleAssertion, Sequent, _walk

__all__ = [
    "Signature", "GenerationBudgetError", "count_models", "enumerate_models", "candidate",
    "random_model", "signature_for",
]


class _SignatureFields(NamedTuple):
    atoms: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    nominals: tuple[str, ...] = ()
    max_worlds: int = 2


class Signature(_SignatureFields):
    """Distinct names of each kind and at least one world, also after ``_replace``."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for kind, names in (("atom", self.atoms), ("role", self.roles),
                            ("nominal", self.nominals)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names: {names}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class GenerationBudgetError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


# The node kinds that carry names: (field index, kind) per name, where kind
# 0 is an atom, 1 a role and 2 a nominal.  Concepts hold no nominals.
_NAMES = {Atom: ((0, 0),), Exists: ((0, 1),), Forall: ((0, 1),),
          RoleAssertion: ((0, 2), (1, 1), (2, 2)), NominalAssertion: ((0, 2),)}


def signature_for(s: Sequent, max_worlds: int) -> Signature:
    """Smallest signature covering the symbols of a sequent, read in one walk."""
    names: tuple[set, set, set] = (set(), set(), set())
    for node in _walk(s):
        for i, kind in _NAMES.get(type(node), ()):
            names[kind].add(node.fields[i])
    atoms, roles, nominals = (tuple(sorted(n)) for n in names)
    return Signature(atoms, roles, nominals, max_worlds)


def _split(mask: int, n: int) -> tuple[int, ...]:
    """Bit rows of the relation whose pair (i, j) is bit i*n + j of mask."""
    low = (1 << n) - 1
    return tuple(mask >> i * n & low for i in range(n))


@lru_cache(maxsize=None)
def _table_relation(n: int, mask: int) -> _Rows:
    """A relation's rows, one per mask, shared by the preorders."""
    return _Rows(_split(mask, n))


@lru_cache(maxsize=None)
def _preorders(n: int) -> tuple[_Rows, ...]:
    return tuple(_table_relation(n, mask) for mask in range(1 << n * n)
                 if not any(_faults(_split(mask, n))))


@lru_cache(maxsize=None)
def _frame_relations(n: int, up: tuple) -> tuple[_Rows, ...]:
    """The relations that meet F1 and F2 over the preorder up, by mask.  A
    row is bound only by the rows of its world's refinements, so each class
    of equivalent worlds takes its rows after the classes above it: it may
    reach v only if every row of its up-set meets the cone of v (F1), and
    the cones it reaches must lie in the union of those rows (F2)."""
    low = (1 << n) - 1
    meets = [low & ~_none(up, r) for r in range(1 << n)].__getitem__    # v whose cone meets r
    closure = [_image(up, u) for u in range(1 << n)]
    masks = [0]
    for cone in sorted(set(up), key=int.bit_count):         # refinements first
        members = [w for w in range(n) if up[w] == cone]
        above = [w for w in _bits(cone) if up[w] != cone]
        bound, adds, grown = sum(low << n * w for w in above), {}, []
        for m in masks:
            # the class's rows depend only on the rows above it: found once per part
            if (part := m & bound) not in adds:
                fixed = [part >> n * w & low for w in above]
                reach, may = reduce(or_, fixed, 0), reduce(and_, map(meets, fixed), low)
                adds[part] = found = []
                free = [r for r in range(1 << n) if r & may == r]
                for rows in product(free, repeat=len(members)):
                    u = reduce(or_, rows, 0)
                    if not u & ~reduce(and_, map(meets, rows), low) | closure[u] & ~(u | reach):
                        found.append(sum(r << n * w for w, r in zip(members, rows)))
            grown += [m | a for a in adds[part]]
        masks = grown
    return tuple(_table_relation(n, m) for m in sorted(masks))


@lru_cache(maxsize=None)
def _upclosed_sets(n: int, up: tuple) -> tuple[int, ...]:
    return tuple(m for m in range(1 << n) if not any(_faults(up, {"": m})))


@lru_cache(maxsize=None)
def _atom_dicts(n: int, up: tuple, names: tuple) -> tuple[dict, ...]:
    """One atom dict per vector of up-closed sets, shared by every enumeration."""
    return tuple(dict(zip(names, v)) for v in product(_upclosed_sets(n, up), repeat=len(names)))


def count_models(sig: Signature) -> int:
    """The length of ``enumerate_models(sig)``, from the tables' sizes: no
    model is built, and no role table for a signature without roles."""
    return sum((len(_frame_relations(n, up.rows)) ** len(sig.roles) if sig.roles else 1)
               * len(_upclosed_sets(n, up.rows)) ** len(sig.atoms) * n ** len(sig.nominals)
               for n in range(1, sig.max_worlds + 1) for up in _preorders(n))


def enumerate_models(sig: Signature) -> Iterator[Interpretation]:
    """Every interpretation over 1..max_worlds entities, in a fixed order.

    The models of one frame (preorder and role vector) share one bit-row
    kernel, built per call, and those of one preorder and atom vector one
    atom dict, kept for the process, from the per-preorder tables.
    """
    for n in range(1, sig.max_worlds + 1):
        worlds = tuple(range(n))
        assignments = [dict(zip(sig.nominals, v))
                       for v in product(worlds, repeat=len(sig.nominals))]
        for up in _preorders(n):
            atom_dicts = _atom_dicts(n, up.rows, sig.atoms)
            tables = _frame_relations(n, up.rows) if sig.roles else ()
            for role_vec in product(tables, repeat=len(sig.roles)):
                kernel = _Kernel(worlds, up, dict(zip(sig.roles, role_vec)))
                for atoms in atom_dicts:
                    for nominals in assignments:
                        yield Interpretation(kernel, atoms, nominals.copy())


# ---------------------------------------------------------------------------
# The frames that can hold the first countermodel, and their lanes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _set_images(n: int) -> tuple:
    """For each set of n worlds, its image under each relabelling of the worlds."""
    return tuple(tuple(_image([1 << q for q in p], m) for p in permutations(range(n)))
                 for m in range(1 << n))


@lru_cache(maxsize=None)
def _relation_images(rows: tuple) -> tuple:
    """A relation's mask under each relabelling, the identity first (it takes
    world i to the one world of the image of {i})."""
    n, sets = len(rows), _set_images(len(rows))
    return tuple(sum(sets[r][g] << n * (sets[1 << i][g].bit_length() - 1)
                     for i, r in enumerate(rows)) for g in range(len(sets[0])))


@lru_cache(maxsize=None)
def _generated(edges: tuple) -> bool:
    """Whether one world generates the frame along edges."""
    return (1 << len(edges)) - 1 in _closed_rows(edges)


@lru_cache(maxsize=None)
def _fixers(up: tuple) -> list:
    """The relabellings (by index, identity first) fixing the preorder up; none if one lowers it."""
    key = _relation_images(up)
    return [g for g, m in enumerate(key) if m == key[0]] if min(key) == key[0] else []


def candidate(kernel: _Kernel, sig: Signature) -> bool:
    """Whether a frame (kernel) of ``enumerate_models(sig)`` can hold the
    first model on which a sequent over sig fails.  Truth does not change
    under renaming worlds, and the stream is in lexicographic order of
    (world count, preorder, roles, atoms, nominals): that frame comes first
    among its renamed copies.  Truth at a world depends only on the
    submodel it generates under refinement and every role, enumerated at a
    lower world count if smaller: without nominals, one world's."""
    fixers = _fixers(kernel.up.rows)
    if not fixers:
        return False
    rels = [kernel.roles[r].rows for r in sig.roles]
    keys = [_relation_images(r) for r in rels] if fixers[1:] else ()
    return ((bool(sig.nominals)
             or _generated(tuple(reduce(or_, c) for c in zip(kernel.up.rows, *rels))))
            and all([m[g] for m in keys] >= [m[0] for m in keys] for g in fixers))


@lru_cache(maxsize=None)
def _lanes(up: tuple, atoms: tuple, nominals: tuple, roles: int) -> tuple[int, Optional[_Lanes]]:
    """How many models a search takes at once on the preorder up, for these atoms,
    nominals and role count, and its frames' lanes; all, and None, if none is a candidate."""
    n = len(up)
    models = [(t, dict(zip(nominals, v))) for t in _atom_dicts(n, up, atoms)
              for v in product(range(n), repeat=len(nominals))]
    if not _fixers(up):
        return len(models) * (len(_frame_relations(n, up)) ** roles if roles else 1), None
    return len(models), _Lanes.of(up, models)


_EDGE_P = 0.3      # off-diagonal refinement edges
_ROLE_P = 0.25     # role pairs per draw
_ATOM_P = 0.4      # atom membership before closure


def random_model(sig: Signature, seed: int, max_retries: int = 200) -> Interpretation:
    """Deterministic random model on exactly max_worlds entities.

    Roles are redrawn until they satisfy the frame conditions; raises
    GenerationBudgetError when max_retries draws all fail.
    """
    rng = random.Random(seed)
    n = sig.max_worlds
    worlds = tuple(range(n))
    up = _closed_rows([sum(1 << j for j in worlds if i != j and rng.random() < _EDGE_P)
                       for i in worlds])
    roles = {}
    for role in sig.roles:
        for _ in range(max_retries):
            rows = _split(sum(1 << k for k in range(n * n) if rng.random() < _ROLE_P), n)
            if not any(_faults(up, roles={"": rows})):
                roles[role] = _Rows(rows)
                break
        else:
            raise GenerationBudgetError(
                f"no frame-compatible relation for role {role} "
                f"after {max_retries} draws (seed {seed})")
    atoms = {a: _image(up, sum(1 << w for w in worlds if rng.random() < _ATOM_P))
             for a in sig.atoms}
    nominals = {x: rng.choice(worlds) for x in sig.nominals}
    return Interpretation(_Kernel(worlds, _Rows(up), roles), atoms, nominals)
