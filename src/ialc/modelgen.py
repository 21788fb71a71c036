"""Exhaustive and random generation of validated interpretations.

Enumeration walks every interpretation over 1..max_worlds entities in a
fixed lexicographic order (world count, preorder bitmask, role bitmasks,
atom bitmasks, nominal assignment), keeping only role relations that
satisfy the frame conditions and only refinement-closed atom extensions.
Random generation rejection-samples roles against the frame conditions,
so both paths emit models that pass validation.

``candidates`` filters the enumeration down to the models that can be
the first on which a sequent fails: those that come first among their
copies under a renaming of worlds, checked once per preorder, per frame,
per atom dict and per model, and are generated by one world and the
nominals' worlds.  The countermodel search evaluates only these.

A relation on n worlds is a bitmask over its n*n pairs, row by row, so
the mask splits directly into the bit rows of the semantics kernel, one
per frame.  Preorders and up-closed sets are filtered by the fault
generator that validation uses.  Frame-compatible relations are built
class by class from F1 and F2, the rows of a class found once per choice
of the rows above it.  All, atom dicts included, are cached per preorder
for the process; ``count_models`` counts the stream from their sizes
alone, building no role table for a signature without roles.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import permutations, product
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple

from .semantics import Interpretation, _bits, _closed_rows, _faults, _image, _Kernel, _none, _Rows
from .syntax import Sequent, atoms_of, nominals_of, roles_of

__all__ = [
    "Signature", "GenerationBudgetError", "count_models", "enumerate_models", "candidates",
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


def signature_for(s: Sequent, max_worlds: int) -> Signature:
    """Smallest signature covering the symbols of a sequent."""
    return Signature(atoms=tuple(sorted(atoms_of(s))), roles=tuple(sorted(roles_of(s))),
                     nominals=tuple(sorted(nominals_of(s))), max_worlds=max_worlds)


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
            for role_vec in product(_frame_relations(n, up.rows), repeat=len(sig.roles)):
                kernel = _Kernel(worlds, up, dict(zip(sig.roles, role_vec)))
                for atoms in atom_dicts:
                    for nominals in assignments:
                        yield Interpretation(kernel, atoms, nominals.copy())


# ---------------------------------------------------------------------------
# The models that can be the first countermodel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _set_images(n: int) -> tuple:
    """For each set of n worlds, its image under each relabelling: each
    permutation of the worlds but the identity."""
    perms = [p for p in permutations(range(n)) if p != tuple(range(n))]
    return tuple(tuple(_image([1 << q for q in p], m) for p in perms) for m in range(1 << n))


@lru_cache(maxsize=None)
def _relation_images(rows: tuple) -> tuple:
    """A relation's mask and its mask under each relabelling (which takes
    world i to the one world of the image of {i})."""
    n, sets = len(rows), _set_images(len(rows))
    return (sum(r << n * i for i, r in enumerate(rows)),
            tuple(sum(sets[r][g] << n * (sets[1 << i][g].bit_length() - 1)
                      for i, r in enumerate(rows)) for g in range(len(sets[0]))))


def _fixers(group, values: list):
    """The relabellings in group that fix every (value, its images), or
    None when one maps the values to a lexicographically smaller vector."""
    kept = []
    for g in group:
        for v, images in values:
            if images[g] != v:
                if images[g] < v:
                    return None
                break
        else:
            kept.append(g)
    return kept


@lru_cache(maxsize=None)
def _generated(edges: tuple, nominals: bool):
    """For each set of nominal worlds (only the empty one without
    nominals), whether it and one more world generate the frame along
    edges; None when none does."""
    reach = _closed_rows(edges)
    table = tuple(any(r | _image(reach, m) == (1 << len(reach)) - 1 for r in reach)
                  for m in range(1 << len(reach) if nominals else 1))
    return table if any(table) else None


def candidates(models: Iterable[Interpretation], sig: Signature) -> Iterator[Interpretation]:
    """The models of ``enumerate_models(sig)`` that can be the first on
    which a sequent over sig fails; the rest are pulled and dropped.

    Truth does not change under renaming worlds, and the stream is in
    lexicographic order of (world count, preorder mask, role masks, atom
    masks, nominal vector), so that model comes first among its renamed
    copies: checked down a stabiliser chain once per preorder, per frame
    (the kernel), per atom dict (kept per process) and per model.
    Truth at a world depends only on the submodel it generates under
    refinement and every role, and that submodel is a model, enumerated
    at a lower world count if smaller: so one world and the nominals'
    worlds generate that model.
    """
    kernel = up = atoms = None
    for I in models:
        if I._k is not kernel:
            kernel, atoms, frame = I._k, None, None
            if kernel.up is not up:
                # the relabellings, by index, that fix the preorder, then also the roles
                up, sets = kernel.up, _set_images(len(kernel.worlds))
                order = _fixers(range(len(sets[0])), [_relation_images(up.rows)])
            if order is not None:
                rels = [up.rows, *(kernel.roles[r].rows for r in sig.roles)]
                generated = _generated(tuple(reduce(or_, c) for c in zip(*rels)), bool(sig.nominals))
                frame = generated and _fixers(order, [*map(_relation_images, rels[1:])])
        if frame is None:
            continue
        if I._atoms is not atoms:
            atoms = I._atoms
            group = _fixers(frame, [(m, sets[m]) for m in map(atoms.get, sig.atoms)])
        if group is None:
            continue
        bits = [1 << I.nominals[x] for x in sig.nominals]    # world w as {w}: same order
        if generated[reduce(or_, bits, 0)] and (
                not group or _fixers(group, [(b, sets[b]) for b in bits]) is not None):
            yield I


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
