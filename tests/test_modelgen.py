import hashlib
import json
import random
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialc.modelgen import (
    GenerationBudgetError, Signature, _frame_relations, _preorders, _split, _upclosed_sets,
    count_models, enumerate_models, random_model, signature_for,
)
from ialc.semantics import (
    _faults, _Goal, _values, model_from_dict, model_to_dict,
    validate_interpretation,
)
from ialc.syntax import atoms_of, nominals_of, parse_problem, parse_sequent, roles_of

ROOT = Path(__file__).resolve().parent.parent


def count_models_oracle(max_worlds, n_atoms, n_roles, n_noms):
    """Independent brute-force counter: enumerate relations and subsets
    directly and multiply the per-preorder choice counts."""
    total = 0
    for n in range(1, max_worlds + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        rels = []
        for mask in range(2 ** (n * n)):
            rels.append({pairs[k] for k in range(n * n) if mask >> k & 1})
        preorders = [r for r in rels
                     if all((i, i) in r for i in range(n))
                     and all((a, d) in r
                             for (a, b) in r for (c, d) in r if b == c)]
        for leq in preorders:
            def frame(rel):
                for (w, w2) in leq:
                    for (a, v) in rel:
                        if a == w and not any((w2, v2) in rel and (v, v2) in leq
                                              for v2 in range(n)):
                            return False
                for (v, v2) in leq:
                    for (w, b) in rel:
                        if b == v and not any((w2, v2) in rel and (w, w2) in leq
                                              for w2 in range(n)):
                            return False
                return True
            n_frame = sum(1 for r in rels if frame(r))
            n_up = sum(1 for mask in range(2 ** n)
                       if all(v in {i for i in range(n) if mask >> i & 1}
                              for w in range(n) if mask >> w & 1
                              for v in range(n) if (w, v) in leq))
            total += (n_frame ** n_roles) * (n_up ** n_atoms) * (n ** n_noms)
    return total


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_single_world_trivial_signature():
    models = list(enumerate_models(Signature(max_worlds=1)))
    assert len(models) == 1
    assert models[0].worlds == (0,)


def test_single_world_one_atom():
    models = list(enumerate_models(Signature(atoms=("A",), max_worlds=1)))
    assert len(models) == 2
    assert {m.atoms["A"] for m in models} == {frozenset(), frozenset({0})}


def test_two_world_one_atom_count_frozen():
    # independently counted: 2 one-world models plus 12 two-world models
    assert count_models_oracle(2, 1, 0, 0) == 14
    assert sum(1 for _ in enumerate_models(Signature(atoms=("A",), max_worlds=2))) == 14


@pytest.mark.parametrize("atoms,roles,noms,worlds,expect", [
    (2, 1, 2, 2, 1808),     # the exhaustive soundness family, frozen
    (2, 1, 0, 2, 458),      # same without nominal assignments
    (0, 2, 0, 2, 486),
    (1, 1, 0, 3, 21698),    # the preorder, role and atom filters at 3 worlds
], ids=["2-1-2-1808", "2-1-0-458", "0-2-0-486", "1-1-0-w3-21698"])
def test_counts_match_oracle(atoms, roles, noms, worlds, expect):
    sig = Signature(atoms=tuple("AB")[:atoms], roles=("R", "S")[:roles],
                    nominals=("x", "y")[:noms], max_worlds=worlds)
    got = sum(1 for _ in enumerate_models(sig))
    assert got == count_models_oracle(worlds, atoms, roles, noms) == expect


def lawful(n, up, mask):
    return not any(_faults(up, roles={"": _split(mask, n)}))


def test_frame_relations_are_the_fault_filter_up_to_three_worlds():
    # the generator against the one validator: same masks, same order
    for n in (1, 2, 3):
        for up in _preorders(n):
            got = [rel.rows for rel in _frame_relations(n, up.rows)]
            assert got == [_split(m, n) for m in range(1 << n * n) if lawful(n, up.rows, m)]


def test_frame_relation_tables_are_pinned_up_to_three_worlds():
    # every preorder's rows in table order, as the 2^(n*n) mask filter yields them
    digest, total = hashlib.sha256(), 0
    for n in (1, 2, 3):
        for up in _preorders(n):
            rels = _frame_relations(n, up.rows)
            total += len(rels)
            digest.update(repr((up.rows, [rel.rows for rel in rels])).encode())
    assert total == 4518
    assert digest.hexdigest() == "55f5b6aef50b76a725efd46d9c740df08f3046cd6d4b0ac1740b77e2f2692b34"


@pytest.mark.parametrize("atoms,roles,noms,worlds", [
    (0, 0, 0, 3), (1, 0, 2, 3), (2, 1, 2, 2), (0, 2, 0, 2), (1, 1, 1, 3)])
def test_count_models_is_the_stream_length(atoms, roles, noms, worlds):
    sig = Signature(atoms=tuple("AB")[:atoms], roles=("R", "S")[:roles],
                    nominals=("x", "y")[:noms], max_worlds=worlds)
    assert count_models(sig) == sum(1 for _ in enumerate_models(sig))


def test_count_models_without_roles_builds_no_role_table():
    before = _frame_relations.cache_info()
    assert count_models(Signature(atoms=("A",), max_worlds=4)) == 2482
    assert count_models(Signature(max_worlds=4)) == 389      # the preorders
    after = _frame_relations.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_enumeration_without_roles_builds_no_role_table():
    before = _frame_relations.cache_info()
    assert sum(1 for _ in enumerate_models(Signature(atoms=("A",), max_worlds=3))) == 144
    assert _frame_relations.cache_info() == before


def test_four_world_frame_relations_are_lawful_and_complete_on_samples():
    rng = random.Random(4)
    for up in rng.sample(_preorders(4), 2):
        table = {sum(r << 4 * i for i, r in enumerate(rel.rows))
                 for rel in _frame_relations(4, up.rows)}
        assert all(lawful(4, up.rows, m) for m in table)
        for m in rng.sample(range(1 << 16), 300):
            assert (m in table) == lawful(4, up.rows, m)


def test_every_emitted_model_validates():
    sig = Signature(atoms=("A",), roles=("R",), nominals=("x",), max_worlds=2)
    models = list(enumerate_models(sig))
    for m in models:
        assert validate_interpretation(m).ok
        assert set(m.roles) == {"R"} and set(m.atoms) == {"A"}
        assert m.nominals["x"] in m.worlds


def test_enumeration_is_deterministic():
    sig = Signature(atoms=("A",), roles=("R",), max_worlds=2)
    assert list(enumerate_models(sig)) == list(enumerate_models(sig))


def test_enumeration_is_monotone_in_max_worlds():
    sig1 = Signature(atoms=("A",), roles=("R",), max_worlds=1)
    sig2 = Signature(atoms=("A",), roles=("R",), max_worlds=2)
    small = list(enumerate_models(sig1))
    prefix = [m for m in enumerate_models(sig2) if len(m.worlds) == 1]
    assert prefix == small


# every signature with at most two atoms, one role and one nominal, to 3 worlds
SMALL_SIGNATURES = [Signature(("A", "B")[:a], ("R",)[:r], ("x",)[:x], 3)
                    for a in range(3) for r in range(2) for x in range(2)]


def sig_id(sig: Signature) -> str:
    return f"{len(sig.atoms)}a{len(sig.roles)}r{len(sig.nominals)}x"


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=sig_id)
def test_models_share_one_kernel_per_frame_and_one_atom_dict_per_atom_vector(sig):
    kernels, atom_dicts = {}, {}
    for I in enumerate_models(sig):
        # the values keep each object alive, so no id is reused
        kernels.setdefault(id(I._k), I._k)
        atom_dicts.setdefault(id(I._atoms), (I._k.up, I._atoms))
    preorders = [(n, up) for n in range(1, 4) for up in _preorders(n)]
    assert len(kernels) == sum(len(_frame_relations(n, up.rows)) ** len(sig.roles)
                               for n, up in preorders)
    assert len(atom_dicts) == sum(len(_upclosed_sets(n, up.rows)) ** len(sig.atoms)
                                  for n, up in preorders)
    # the kernels are distinct frames, the atom dicts distinct (preorder, atom vector)
    assert len({(id(k.up), *map(id, k.roles.values())) for k in kernels.values()}) == len(kernels)
    assert len({(id(up), *t.values()) for up, t in atom_dicts.values()}) == len(atom_dicts)


def values(I, ops: tuple) -> list:
    return _values(I._k, I._atoms, ops)


def test_a_kept_model_is_unchanged_by_the_rest_of_the_stream():
    # every model evaluates one program on the kernel and atom dict it
    # shares with other models of the stream
    ops = _Goal(parse_sequent("x : (A -> some R.B) ; all R.A |- x : not B | some R.top"),
                True).ops
    kept = []
    for i, I in enumerate(enumerate_models(Signature(("A", "B"), ("R",), ("x",), 2))):
        if i % 7 == 0:
            kept.append((I, model_to_dict(I), values(I, ops)))
    for I, doc, vs in kept:
        # a model loaded from the kept one's document has a kernel of its own
        assert model_to_dict(I) == doc
        assert values(I, ops) == vs == values(model_from_dict(doc)[0], ops)


def test_enumerations_share_atom_dicts_but_not_kernels():
    sig = Signature(("A", "B"), ("R",), ("x",), 2)
    first, second = list(enumerate_models(sig)), list(enumerate_models(sig))
    assert first == second
    assert all(I._atoms is J._atoms and I._k is not J._k for I, J in zip(first, second))


def test_kernels_on_the_same_worlds_share_one_index():
    sig = Signature(("A",), ("R",), ("x",), 3)
    kernels = {}
    for I in enumerate_models(sig):
        kernels.setdefault(len(I.worlds), {})[id(I._k)] = I._k
    for n, ks in kernels.items():
        first, *rest = ks.values()
        assert rest and all(k.index is first.index for k in rest)
        assert first.index == {w: i for i, w in enumerate(range(n))}
        assert [first.pos(w) for w in range(n)] == list(range(n))
        for foreign in (n, -1, "0", [0]):
            with pytest.raises(ValueError, match="not in the domain"):
                first.pos(foreign)


def test_a_kept_model_is_unchanged_by_a_later_enumeration():
    # the later stream shares the kept models' atom dicts and evaluates
    # another program on each of its own kernels
    sig = Signature(("A", "B"), ("R",), ("x",), 2)
    goals = [_Goal(parse_sequent(t), True).ops for t in (
        "x : (A -> some R.B) ; all R.A |- x : not B | some R.top", "A ; all R.B |- some R.(A & B)")]
    kept = [(I, model_to_dict(I), values(I, goals[0]))
            for I in islice(enumerate_models(sig), 0, None, 5)]
    for J in enumerate_models(sig):
        values(J, goals[1])
    for I, doc, vs in kept:
        assert model_to_dict(I) == doc
        assert values(I, goals[0]) == vs == values(model_from_dict(doc)[0], goals[0])


def test_three_world_enumeration_samples_validate():
    sig = Signature(atoms=("A",), roles=("R",), max_worlds=3)
    for m in islice(enumerate_models(sig), 0, 4000, 97):
        assert validate_interpretation(m).ok


def test_signature_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Signature(atoms=("A", "A"))
    with pytest.raises(ValueError):
        Signature(max_worlds=0)


def test_signature_for_collects_symbols():
    s = parse_sequent("x : some R.(A & B) |- y : all S.C")
    sig = signature_for(s, 3)
    assert sig == Signature(atoms=("A", "B", "C"), roles=("R", "S"),
                            nominals=("x", "y"), max_worlds=3)


def test_signature_for_reads_what_the_three_collectors_read():
    texts = [e["text"] for name in ("countermodel", "prove")
             for e in json.loads((ROOT / "perfbench" / "pool" / f"{name}.json").read_text())]
    texts += [p.read_text() for p in sorted((ROOT / "golden").glob("*.ialc"))]
    assert len(texts) == 727 + 761 + 7
    for text in texts:
        s = parse_problem(text).sequent()
        assert signature_for(s, 3) == Signature(
            tuple(sorted(atoms_of(s))), tuple(sorted(roles_of(s))),
            tuple(sorted(nominals_of(s))), 3), text


# ---------------------------------------------------------------------------
# Heredity closure
# ---------------------------------------------------------------------------

LEQ = frozenset([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"),
                 ("a", "c")])


def heredity_closure(ext) -> frozenset:
    """The extension model_from_dict gives atom A on the chain a <= b <= c."""
    doc = {"worlds": list("abc"), "leq": sorted(map(list, LEQ)),
           "atoms": {"A": sorted(ext)}}
    return model_from_dict(doc)[0].atoms["A"]


def test_heredity_closure_forced_upward():
    assert heredity_closure({"a"}) == frozenset("abc")
    assert heredity_closure({"b"}) == frozenset("bc")
    assert heredity_closure(set()) == frozenset()


@settings(max_examples=200)
@given(st.frozensets(st.sampled_from("abc")))
def test_heredity_closure_properties(seed_set):
    once = heredity_closure(seed_set)
    assert seed_set <= once                          # extensive
    assert heredity_closure(once) == once            # idempotent


@settings(max_examples=200)
@given(st.frozensets(st.sampled_from("abc")), st.frozensets(st.sampled_from("abc")))
def test_heredity_closure_monotone(s1, s2):
    lo, hi = (s1, s1 | s2)
    assert heredity_closure(lo) <= heredity_closure(hi)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

SIG3 = Signature(atoms=("A", "B"), roles=("R",), nominals=("x", "y"),
                 max_worlds=3)


def test_random_model_deterministic():
    assert random_model(SIG3, 42) == random_model(SIG3, 42)
    assert random_model(SIG3, 42) != random_model(SIG3, 43)


def test_random_models_all_validate():
    for seed in range(1000):
        m = random_model(SIG3, seed)
        assert validate_interpretation(m).ok
        assert len(m.worlds) == 3


def test_random_models_reach_nonempty_roles():
    # regression bound measured on this generator: well above the 10%
    # sanity threshold
    nonempty = sum(1 for seed in range(1000)
                   if random_model(SIG3, seed).roles["R"])
    assert nonempty > 100


def test_retry_budget_error_is_distinguished():
    with pytest.raises(GenerationBudgetError):
        random_model(SIG3, 0, max_retries=0)
