"""Exhaustive and random generation of validated interpretations.

Enumeration walks every interpretation over 1..max_worlds entities in a
fixed lexicographic order (world count, preorder bitmask, role bitmasks,
atom bitmasks, nominal assignment), keeping only role relations that
satisfy the frame conditions and only refinement-closed atom extensions.
Random generation rejection-samples roles against the frame conditions,
so both paths emit models that pass validation.

A relation on n worlds is a bitmask over its n*n pairs, row by row, so
the mask splits directly into the bit rows of the semantics kernel, the
only stored form of a model.  Preorders, frame-compatible relations and
up-closed sets are filtered by the kernel's own frame check and cached,
as rows and masks, per world count and preorder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

from .semantics import (
    Interpretation, _closed_rows, _image, _Kernel, _preorder_ok, _role_ok,
    _Rows,
)
from .syntax import Sequent, atoms_of, nominals_of, roles_of

__all__ = [
    "Signature", "GenerationBudgetError", "enumerate_models", "random_model",
    "signature_for",
]


@dataclass(frozen=True)
class Signature:
    atoms: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    nominals: tuple[str, ...] = ()
    max_worlds: int = 2

    def __post_init__(self):
        for kind, names in (("atom", self.atoms), ("role", self.roles),
                            ("nominal", self.nominals)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names: {names}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")


class GenerationBudgetError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


def signature_for(s: Sequent, max_worlds: int) -> Signature:
    """Smallest signature covering the symbols of a sequent."""
    return Signature(
        atoms=tuple(sorted(atoms_of(s))),
        roles=tuple(sorted(roles_of(s))),
        nominals=tuple(sorted(nominals_of(s))),
        max_worlds=max_worlds,
    )


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
                 if _preorder_ok(_split(mask, n)))


@lru_cache(maxsize=None)
def _frame_relations(n: int, up: tuple) -> tuple[_Rows, ...]:
    return tuple(_table_relation(n, mask) for mask in range(1 << n * n)
                 if _role_ok(up, _split(mask, n)))


@lru_cache(maxsize=None)
def _upclosed_sets(n: int, up: tuple) -> tuple[int, ...]:
    return tuple(m for m in range(1 << n) if not _image(up, m) & ~m)


def enumerate_models(sig: Signature) -> Iterator[Interpretation]:
    """Every interpretation over 1..max_worlds entities, in a fixed order.

    Models that differ only in their nominals share one bit-row kernel
    built from the per-preorder and per-relation tables.
    """
    for n in range(1, sig.max_worlds + 1):
        worlds = tuple(range(n))
        for up in _preorders(n):
            role_choices = _frame_relations(n, up.rows)
            atom_choices = _upclosed_sets(n, up.rows)
            for role_vec in product(role_choices, repeat=len(sig.roles)):
                roles = dict(zip(sig.roles, role_vec))
                for atom_vec in product(atom_choices, repeat=len(sig.atoms)):
                    kernel = _Kernel(worlds, up, roles, dict(zip(sig.atoms, atom_vec)))
                    for nom_vec in product(worlds, repeat=len(sig.nominals)):
                        yield Interpretation(kernel, dict(zip(sig.nominals, nom_vec)))


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
            if _role_ok(up, rows):
                roles[role] = _Rows(rows)
                break
        else:
            raise GenerationBudgetError(
                f"no frame-compatible relation for role {role} "
                f"after {max_retries} draws (seed {seed})")
    atoms = {a: _image(up, sum(1 << w for w in worlds if rng.random() < _ATOM_P))
             for a in sig.atoms}
    nominals = {x: rng.choice(worlds) for x in sig.nominals}
    return Interpretation(_Kernel(worlds, _Rows(up), roles, atoms), nominals)
