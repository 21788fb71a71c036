import copy
import gc
import hashlib
import json
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialc.modelgen import Signature, enumerate_models, random_model
from ialc.semantics import (
    Interpretation, ModelFileError, UnassignedNominalError, Violation,
    extension, load_model, model_from_dict, model_to_dict, satisfies,
    _Bytewise, _faults, _Goal, _Kernel, _none, _Rows, save_model, sequent_valid,
    validate_interpretation,
)
from ialc.syntax import (
    And, Atom, BOT, Bot, ConceptF, Exists, Forall, NominalAssertion, Not, Or,
    RoleAssertion, Sequent, Subs, TOP, Top, outer_nominal, parse_formula,
    parse_sequent,
)
from corpus import random_concept

A, B = Atom("A"), Atom("B")


def holds(I, c, w):
    """Independent clause-by-clause evaluator used as the oracle: one
    boolean recursion per world, no set algebra, no caching."""
    ups = [v for v in I.worlds if (w, v) in I.leq]
    if isinstance(c, Atom):
        return w in I.atoms.get(c.name, frozenset())
    if isinstance(c, Top):
        return True
    if isinstance(c, Bot):
        return False
    if isinstance(c, Not):
        return all(not holds(I, c.body, v) for v in ups)
    if isinstance(c, And):
        return holds(I, c.left, w) and holds(I, c.right, w)
    if isinstance(c, Or):
        return holds(I, c.left, w) or holds(I, c.right, w)
    if isinstance(c, Subs):
        return all(holds(I, c.right, v) for v in ups if holds(I, c.left, v))
    if isinstance(c, Exists):
        rel = I.roles.get(c.role, frozenset())
        return any((w, v) in rel and holds(I, c.body, v) for v in I.worlds)
    if isinstance(c, Forall):
        rel = I.roles.get(c.role, frozenset())
        return all(holds(I, c.body, z)
                   for v in ups for z in I.worlds if (v, z) in rel)
    raise TypeError(c)


@pytest.fixture
def chain():
    """Two worlds w <= w2, A true only upstairs."""
    return Interpretation.make(
        worlds=["w", "w2"],
        leq=[("w", "w"), ("w2", "w2"), ("w", "w2")],
        atoms={"A": ["w2"]},
        nominals={"x": "w", "y": "w2"},
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_trivial_model_validates():
    one = Interpretation.make(["w"], [("w", "w")])
    assert validate_interpretation(one).ok


def test_heredity_violation_witnessed():
    bad = Interpretation.make(["w", "w2"],
                              [("w", "w"), ("w2", "w2"), ("w", "w2")],
                              atoms={"A": ["w"]})
    report = validate_interpretation(bad)
    assert [v.kind for v in report.violations] == ["heredity"]
    assert report.violations[0].witnesses == ("A", "w", "w2")


def test_f1_violation_witnessed():
    bad = Interpretation.make(
        ["w", "w2", "v"],
        [("w", "w"), ("w2", "w2"), ("v", "v"), ("w", "w2")],
        roles={"R": [("w", "v")]})
    kinds = {v.kind for v in validate_interpretation(bad).violations}
    assert kinds == {"F1"}


def test_f2_violation_witnessed():
    # v <= v2 and w R v, but nothing reaches v2
    bad = Interpretation.make(
        ["w", "v", "v2"],
        [("w", "w"), ("v", "v"), ("v2", "v2"), ("v", "v2")],
        roles={"R": [("w", "v")]})
    kinds = {v.kind for v in validate_interpretation(bad).violations}
    assert kinds == {"F2"}


def test_preorder_and_nominal_violations():
    bad = Interpretation.make(["a", "b", "c"],
                              [("a", "b"), ("b", "c")],
                              nominals={"x": "zzz"})
    kinds = {v.kind for v in validate_interpretation(bad).violations}
    assert kinds == {"reflexivity", "transitivity", "dangling-nominal"}


def test_make_rejects_out_of_universe_references():
    with pytest.raises(ValueError):
        Interpretation.make(["w"], [("w", "v")])
    with pytest.raises(ValueError):
        Interpretation.make(["w"], [("w", "w")], roles={"R": [("w", "q")]})
    with pytest.raises(ValueError):
        Interpretation.make(["w"], [("w", "w")], atoms={"A": ["q"]})
    # equal entities would merge into one world
    for worlds in (["w", "w"], [1, True, 1.0]):
        with pytest.raises(ValueError):
            Interpretation.make(worlds)


def test_empty_report_iff_valid(two_world_models):
    for I in two_world_models[:200]:
        assert validate_interpretation(I).ok


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------

def test_extension_constants(chain):
    assert extension(chain, TOP) == frozenset(chain.worlds)
    assert extension(chain, BOT) == frozenset()


def test_extension_negation_on_chain(chain):
    # frozen from the oracle: at w the refinement w2 satisfies A, so not A
    # fails everywhere, and not not A holds everywhere
    assert extension(chain, Not(A)) == frozenset()
    assert extension(chain, Not(Not(A))) == frozenset({"w", "w2"})
    assert {w for w in chain.worlds if holds(chain, Not(A), w)} == set()
    assert {w for w in chain.worlds if holds(chain, Not(Not(A)), w)} == {"w", "w2"}


def test_extension_agrees_with_oracle_on_random_models():
    rng = random.Random(7)
    sig = Signature(atoms=("A", "B"), roles=("R", "S"), max_worlds=3)
    for seed in range(60):
        I = random_model(sig, seed)
        for _ in range(10):
            c = random_concept(rng, ("A", "B"), ("R", "S"), 3)
            assert extension(I, c) == frozenset(
                w for w in I.worlds if holds(I, c, w))


def test_extension_missing_names_default_empty(chain):
    assert extension(chain, Atom("Missing")) == frozenset()
    assert extension(chain, Exists("NoRole", TOP)) == frozenset()


def test_an_undeclared_role_leaves_shared_frames_unchanged(golden_dir):
    """Evaluating a role no model declares must not declare it: models
    that differ only in their nominals share one frame."""
    loaded, _ = load_model(str(golden_dir / "chain.model"))
    siblings = list(enumerate_models(Signature(("A",), ("R",), ("x", "y"), 2)))
    models = [loaded, *siblings]
    before = [(I.roles, model_to_dict(I)) for I in models]
    probes = (Exists("S", A), Forall("S", A))
    for I in models:
        for c in probes:
            extension(I, c)
            sequent_valid(I, Sequent(frozenset(), NominalAssertion("x", ConceptF(c))))
    assert "S" not in loaded.roles
    assert [(I.roles, model_to_dict(I)) for I in models] == before
    # one empty relation per world count serves every undeclared role
    assert loaded._k.rel("S") is loaded._k.rel("T") is siblings[-1]._k.rel("S")
    assert loaded._k.rel("S").rows == (0, 0)
    assert extension(loaded, Or(Exists("S", A), Forall("S", A))) == frozenset(loaded.worlds)


def test_extension_order_independent(chain):
    flipped = Interpretation.make(
        worlds=["w2", "w"], leq=chain.leq, roles=chain.roles,
        atoms=chain.atoms, nominals=chain.nominals)
    for c in (Not(A), Not(Not(A)), Subs(A, BOT), Forall("R", A)):
        assert extension(chain, c) == extension(flipped, c)


def test_heredity_lemma_sampled():
    rng = random.Random(11)
    sig = Signature(atoms=("A", "B"), roles=("R",), max_worlds=3)
    for seed in range(80):
        I = random_model(sig, seed)
        for _ in range(5):
            c = random_concept(rng, ("A", "B"), ("R",), 4)
            ext = extension(I, c)
            for (w, v) in I.leq:
                assert not (w in ext and v not in ext), (c, w, v)


def test_definability(two_world_models):
    rng = random.Random(13)
    for I in two_world_models[::7]:
        assert extension(I, TOP) == extension(I, Not(BOT))
        for _ in range(3):
            c = random_concept(rng, ("A", "B"), ("R",), 2)
            assert extension(I, Not(c)) == extension(I, Subs(c, BOT))


def test_classical_identities(two_world_models):
    for I in two_world_models[::5]:
        assert extension(I, Exists("R", BOT)) == frozenset()
        lhs = extension(I, Exists("R", Or(A, B)))
        rhs = extension(I, Exists("R", A)) | extension(I, Exists("R", B))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Hybrid satisfaction
# ---------------------------------------------------------------------------

def test_satisfies_assertion_with_hereditary_extension(chain):
    # x sits at w; not not A holds at every refinement of w
    assert satisfies(chain, parse_formula("x : not not A"))
    assert not satisfies(chain, parse_formula("x : A"))
    assert satisfies(chain, parse_formula("y : A"))


def test_satisfies_concept_is_global(chain):
    assert satisfies(chain, parse_formula("top"))
    assert not satisfies(chain, parse_formula("A"))


def test_satisfies_nested_assertion_reanchors(chain, golden_dir):
    # inner assertion anchors at y regardless of the outer quantification
    assert satisfies(chain, parse_formula("x : (y : A)"))
    assert not satisfies(chain, parse_formula("y : (x : A)"))
    # every level re-anchors at x, so only the innermost x : A decides; in a
    # sequent a nested assertion is read at no chosen world, unlike x : A
    nested, double = parse_formula("x : (x : (x : A))"), parse_formula("x : (x : A)")
    flat = parse_formula("x : A")
    models = [load_model(str(golden_dir / "chain.model"))[0]]
    sig = Signature(atoms=("A",), roles=("R",), nominals=("x",), max_worlds=3)
    models += [random_model(sig, seed) for seed in range(100)]
    for I in models:
        assert satisfies(I, nested) == satisfies(I, flat)
        assert sequent_valid(I, Sequent(frozenset({nested}), flat))
        assert sequent_valid(I, Sequent(frozenset({double}), nested))
        assert sequent_valid(I, Sequent(frozenset({nested}), double))
    assert not satisfies(models[0], nested)
    assert {satisfies(I, flat) for I in models} == {False, True}


def test_role_clause_quantifies_both_refinement_cones():
    # w <= w2 with a single edge from w only: the clause fails at the
    # refinement w2 (this frame breaks F1, so bypass validation)
    raw = Interpretation.make(
        ["w", "w2", "v"],
        [("w", "w"), ("w2", "w2"), ("v", "v"), ("w", "w2")],
        roles={"R": [("w", "v")]},
        nominals={"x": "w", "y": "v"})
    assert not satisfies(raw, parse_formula("R(x,y)"))
    # with the matching upper edge the clause goes through
    fixed = Interpretation.make(
        ["w", "w2", "v"],
        [("w", "w"), ("w2", "w2"), ("v", "v"), ("w", "w2")],
        roles={"R": [("w", "v"), ("w2", "v")]},
        nominals={"x": "w", "y": "v"})
    assert satisfies(fixed, parse_formula("R(x,y)"))


def test_unassigned_nominal_is_distinguished_error(chain):
    with pytest.raises(UnassignedNominalError):
        satisfies(chain, parse_formula("q : A"))
    with pytest.raises(UnassignedNominalError):
        sequent_valid(chain, parse_sequent("q : A |- A"))


# ---------------------------------------------------------------------------
# Sequent validity
# ---------------------------------------------------------------------------

def test_identity_sequent_valid_everywhere(two_world_models):
    s = parse_sequent("A |- A")
    for I in two_world_models[::10]:
        assert sequent_valid(I, s)


def test_bot_assertion_sequent_valid(chain, two_world_models_nominals):
    s = parse_sequent("x : bot |- A")
    assert sequent_valid(chain, s)
    for I in two_world_models_nominals[::17]:
        assert sequent_valid(I, s)


def test_double_negation_fails_on_chain(chain):
    assert not sequent_valid(chain, parse_sequent("|- (not not A) -> A"))
    assert not sequent_valid(chain, parse_sequent("|- A | not A"))


def test_same_nominal_shares_its_world(chain):
    # both occurrences of x range over the same refinement, so the
    # hypothesis at x is usable for the conclusion at x
    assert sequent_valid(chain, parse_sequent("x : A |- x : A"))
    assert sequent_valid(chain, parse_sequent("x : A ; x : B |- x : (A & B)"))


def test_tbox_global_vs_local():
    # A -> B holds at u but not at v, so it is not global: the global
    # reading is vacuous while the local one exposes the failure at u
    I = Interpretation.make(
        ["u", "v"], [("u", "u"), ("v", "v")],
        atoms={"A": ["u", "v"], "B": ["u"]})
    assert extension(I, Subs(A, B)) == frozenset({"u"})
    s = parse_sequent("A -> B |- C")
    assert sequent_valid(I, s, tbox_global=True)
    assert not sequent_valid(I, s, tbox_global=False)
    # when the hypothesis is global the two readings agree
    I2 = Interpretation.make(
        ["u", "v"], [("u", "u"), ("v", "v")],
        atoms={"A": ["u"], "B": ["u"]})
    s2 = parse_sequent("A -> B |- (A -> B) | C")
    assert sequent_valid(I2, s2, tbox_global=True)
    assert sequent_valid(I2, s2, tbox_global=False)
    # local names the subsumptions read at the shared world, each on its own
    ab, cc = parse_formula("A -> B"), parse_formula("C -> C")
    s3 = Sequent.make([ab, cc], ConceptF(Atom("C")))
    assert not _Goal(s3, frozenset({ab})).holds(I)
    assert _Goal(s3, frozenset({cc})).holds(I) and _Goal(s3, frozenset()).holds(I)


def test_monotone_strengthening(two_world_models_nominals):
    rng = random.Random(5)
    base = [parse_sequent("A |- A & (B -> A)"),
            parse_sequent("x : A |- x : (B -> A)"),
            parse_sequent("|- top")]
    extras = [parse_formula(t) for t in
              ("B", "x : B", "R(x,y)", "A -> B", "y : bot")]
    for I in two_world_models_nominals[::23]:
        for s in base:
            if sequent_valid(I, s):
                for extra in extras:
                    assert sequent_valid(I, s.with_extra(extra))


def test_modal_schema_instances_valid(two_world_models):
    from ialc.hilbert import instance
    from ialc.syntax import ConceptF, Sequent
    for axiom in range(1, 6):
        s = Sequent.make([], ConceptF(instance(f"ik {axiom}", {"C": A, "D": B, "R": "R"})))
        assert all(sequent_valid(I, s) for I in two_world_models)


def test_find_countermodel_returns_first_counterexample(two_world_models):
    from ialc.sequent import find_countermodel
    sig = Signature(atoms=("A", "B"), roles=("R",), max_worlds=2)
    assert find_countermodel(parse_sequent("A |- A"), sig) is None
    s = parse_sequent("|- A | not A")
    found = find_countermodel(s, sig)
    assert found is not None and not sequent_valid(found, s)
    # independent scan agrees on the index
    first = next(I for I in two_world_models if not sequent_valid(I, s))
    assert found == first


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def test_model_file_roundtrip(tmp_path, chain):
    path = tmp_path / "m.model"
    save_model(chain, str(path))
    loaded, warnings = load_model(str(path))
    assert warnings == []
    assert loaded == chain


def test_a_model_is_a_value_of_its_fields():
    # an enumerated model shares its frame's kernel; one made from its fields has its own
    *_, J, I = enumerate_models(Signature(("A",), ("R",), ("x",), 2))
    made = Interpretation.make(I.worlds, I.leq, I.roles, I.atoms, I.nominals)
    assert made == I and made._k is not I._k and J._k is I._k
    for a, b in ((I, made), (made, I), (I, I), (I, J), (made, J), (I, None)):
        assert (a != b) is (not a == b)
    with pytest.raises(TypeError):
        hash(I)
    for field in ("_k", "nominals"):
        with pytest.raises(AttributeError):
            setattr(I, field, getattr(J, field))
    for model in (I, made):
        for twin in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert type(twin) is Interpretation and twin == model and not twin != model


def test_model_load_applies_closures():
    I, warnings = model_from_dict({
        "worlds": ["a", "b", "c"],
        "leq": [["a", "b"], ["b", "c"]],
        "atoms": {"A": ["a"]},
    })
    assert ("a", "c") in I.leq and ("a", "a") in I.leq
    assert I.atoms["A"] == frozenset({"a", "b", "c"})
    assert len(warnings) == 1 and "A" in warnings[0]


def test_loaded_models_are_freed_without_the_collector(golden_dir):
    # relation tables are filled on first use, and no model holds a cycle
    docs = [json.loads(p.read_text()) for p in sorted(golden_dir.glob("*.model"))]
    docs.append({"worlds": ["a", "b", "c"], "leq": [["a", "b"]], "atoms": {"A": ["b"]},
                 "roles": {"R": [["a", "c"], ["b", "c"]], "S": []}, "nominals": {"x": "a"}})
    queries = [parse_formula(t).concept for t in ("all R.A -> some S.A", "some T.A | not A")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            for doc in docs:
                I, _ = model_from_dict(doc)
                for c in queries:
                    extension(I, c)
            for doc in docs:
                model_from_dict(doc)
            del I
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_model_load_rejects_frame_violations_unless_raw():
    doc = {
        "worlds": ["w", "w2", "v"],
        "leq": [["w", "w2"]],
        "roles": {"R": [["w", "v"]]},
    }
    with pytest.raises(ModelFileError):
        model_from_dict(doc)
    I, _ = model_from_dict(doc, raw=True)
    assert not validate_interpretation(I).ok


def test_model_load_rejects_garbage():
    with pytest.raises(ModelFileError):
        model_from_dict({"leq": []})
    with pytest.raises(ModelFileError):
        model_from_dict({"worlds": ["w"], "roles": {"R": [["w", "nope"]]}})
    # JSON shapes: worlds and extensions are arrays, pairs arrays of two
    # worlds, roles/atoms/nominals objects; no string or object stands in
    for doc in ({"worlds": "ab"}, {"worlds": {"a": 1}},
                {"worlds": ["0", "1"], "leq": ["01"]},
                {"worlds": [0, 5], "leq": [[0, 0, 5]]},
                {"worlds": ["a", "b"], "atoms": {"A": "ab"}},
                {"worlds": [0], "nominals": [["x", 0]]}):
        with pytest.raises(ModelFileError, match="must be an"):
            model_from_dict(doc)


def test_loaders_survive_adversarial_documents():
    from ialc.sequent import ProofFileError, tree_from_dict
    from ialc.syntax import ParseError

    rng = random.Random(99)

    def rand_doc(depth=3):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice([0, 1, "w", "A |- A", "axiom", None, True,
                               3.5, [], {}])
        if roll < 0.55:
            return [rand_doc(depth - 1) for _ in range(rng.randint(0, 3))]
        keys = ["worlds", "leq", "roles", "atoms", "nominals", "rule",
                "conclusion", "params", "premises", "junk"]
        return {rng.choice(keys): rand_doc(depth - 1)
                for _ in range(rng.randint(0, 4))}

    for _ in range(3000):
        doc = rand_doc()
        try:
            model_from_dict(doc)
        except ModelFileError:
            pass
        try:
            tree_from_dict(doc)
        except (ProofFileError, ParseError):
            pass
    with pytest.raises(ModelFileError):
        model_from_dict({"worlds": [1, True, 1.0], "atoms": {"A": [True]}})
    deep = {"rule": "axiom", "conclusion": "A |- A"}
    for _ in range(3000):
        deep = {"rule": "weaken", "conclusion": "A |- A", "premises": [deep]}
    with pytest.raises(ProofFileError):
        tree_from_dict(deep)


# ---------------------------------------------------------------------------
# Differential check: bitset kernel against the set-based reference
# ---------------------------------------------------------------------------
#
# The reference below is the set-based evaluator the kernel replaced:
# the constructive clauses, the hybrid satisfaction and sequent clauses
# and the frame checks, one set operation per clause.  Up-sets and
# successor sets are read straight off the pairs, so nothing here goes
# through the kernel.

def ref_up(I, w):
    return tuple(u for u in I.worlds if (w, u) in I.leq)


def ref_successors(I, role, w):
    rel = I.roles.get(role, frozenset())
    return tuple(u for u in I.worlds if (w, u) in rel)


def ref_extension(I, c, cache):
    hit = cache.get(c)
    if hit is not None:
        return hit
    if isinstance(c, Atom):
        result = I.atoms.get(c.name, frozenset())
    elif isinstance(c, Top):
        result = frozenset(I.worlds)
    elif isinstance(c, Bot):
        result = frozenset()
    elif isinstance(c, Not):
        body = ref_extension(I, c.body, cache)
        result = frozenset(w for w in I.worlds
                           if all(v not in body for v in ref_up(I, w)))
    elif isinstance(c, And):
        result = ref_extension(I, c.left, cache) & ref_extension(I, c.right, cache)
    elif isinstance(c, Or):
        result = ref_extension(I, c.left, cache) | ref_extension(I, c.right, cache)
    elif isinstance(c, Subs):
        le, ri = ref_extension(I, c.left, cache), ref_extension(I, c.right, cache)
        result = frozenset(w for w in I.worlds
                           if all(v in ri for v in ref_up(I, w) if v in le))
    elif isinstance(c, Exists):
        body = ref_extension(I, c.body, cache)
        result = frozenset(w for w in I.worlds
                           if any(v in body for v in ref_successors(I, c.role, w)))
    elif isinstance(c, Forall):
        body = ref_extension(I, c.body, cache)
        result = frozenset(w for w in I.worlds
                           if all(z in body
                                  for v in ref_up(I, w)
                                  for z in ref_successors(I, c.role, v)))
    else:
        raise TypeError(f"not a concept: {c!r}")
    cache[c] = result
    return result


def ref_role_holds(I, f):
    rel = I.roles.get(f.role, frozenset())
    zx = ref_up(I, I.entity_of(f.subject))
    zy = ref_up(I, I.entity_of(f.object))
    return all((a, b) in rel for a in zx for b in zy)


def ref_body_holds_at(I, body, e, cache):
    if isinstance(body, ConceptF):
        return e in ref_extension(I, body.concept, cache)
    return ref_satisfies(I, body, cache)


def ref_satisfies(I, f, cache):
    if isinstance(f, ConceptF):
        return ref_extension(I, f.concept, cache) == frozenset(I.worlds)
    if isinstance(f, RoleAssertion):
        return ref_role_holds(I, f)
    anchor = I.entity_of(f.nominal)
    return all(ref_body_holds_at(I, f.body, z, cache) for z in ref_up(I, anchor))


def ref_member_holds(I, f, z, w, global_subs, cache):
    if isinstance(f, RoleAssertion):
        return ref_role_holds(I, f)
    if isinstance(f, NominalAssertion):
        return ref_body_holds_at(I, f.body, z[f.nominal], cache)
    c = f.concept
    if global_subs and isinstance(c, Subs):
        return ref_extension(I, c, cache) == frozenset(I.worlds)
    return w in ref_extension(I, c, cache)


def ref_sequent_valid(I, s, tbox_global, cache):
    members = list(s.antecedent)
    outers = []
    for f in members + [s.succedent]:
        x = outer_nominal(f)
        if x is not None and x not in outers:
            outers.append(x)
    outers.sort()
    domains = [ref_up(I, I.entity_of(x)) for x in outers]
    for choice in product(*domains):
        z = dict(zip(outers, choice))
        for w in I.worlds:
            if all(ref_member_holds(I, m, z, w, tbox_global, cache) for m in members):
                if not ref_member_holds(I, s.succedent, z, w, False, cache):
                    return False
    return True


def ref_violations(I):
    out = []
    for w in I.worlds:
        if (w, w) not in I.leq:
            out.append(Violation("reflexivity", (w,)))
    for (a, b) in sorted(I.leq, key=repr):
        for (c, d) in sorted(I.leq, key=repr):
            if b == c and (a, d) not in I.leq:
                out.append(Violation("transitivity", (a, b, d)))
    for name in sorted(I.atoms):
        ext = I.atoms[name]
        for (w, v) in sorted(I.leq, key=repr):
            if w in ext and v not in ext:
                out.append(Violation("heredity", (name, w, v)))
    for role in sorted(I.roles):
        rel = I.roles[role]
        for (w, w2) in sorted(I.leq, key=repr):
            for (a, v) in sorted(rel, key=repr):
                if a != w:
                    continue
                if not any((w2, v2) in rel and (v, v2) in I.leq for v2 in I.worlds):
                    out.append(Violation("F1", (role, w, w2, v)))
        for (v, v2) in sorted(I.leq, key=repr):
            for (w, b) in sorted(rel, key=repr):
                if b != v:
                    continue
                if not any((w2, v2) in rel and (w, w2) in I.leq for w2 in I.worlds):
                    out.append(Violation("F2", (role, w, v, v2)))
    for nom in sorted(I.nominals):
        if not any(I.nominals[nom] == w for w in I.worlds):
            out.append(Violation("dangling-nominal", (nom, I.nominals[nom])))
    return tuple(out)


def assert_kernel_agrees(I, c, f, s):
    cache = {}
    assert extension(I, c) == ref_extension(I, c, cache), c
    assert satisfies(I, f) == ref_satisfies(I, f, cache), f
    for tbox_global in (True, False):
        assert (sequent_valid(I, s, tbox_global)
                == ref_sequent_valid(I, s, tbox_global, cache)), (s, tbox_global)


_roles = st.sampled_from(["R", "S"])
_noms = st.sampled_from(["x", "y"])
_concepts = st.recursive(
    st.sampled_from([A, B, TOP, BOT]),
    lambda inner: st.one_of(
        st.builds(Not, inner), st.builds(And, inner, inner),
        st.builds(Or, inner, inner), st.builds(Subs, inner, inner),
        st.builds(Exists, _roles, inner), st.builds(Forall, _roles, inner)),
    max_leaves=6,
)
_formulas = st.one_of(
    st.builds(ConceptF, _concepts),
    st.builds(NominalAssertion, _noms, st.builds(ConceptF, _concepts)),
    st.builds(RoleAssertion, _noms, _roles, _noms),
    st.builds(NominalAssertion, _noms,
              st.builds(NominalAssertion, _noms, st.builds(ConceptF, _concepts))),
)
_sequents = st.builds(Sequent.make, st.lists(_formulas, max_size=3), _formulas)

FULL_SIG = Signature(atoms=("A", "B"), roles=("R", "S"), nominals=("x", "y"))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32), _concepts, _formulas, _sequents)
def test_kernel_agrees_with_reference_on_random_models(n, seed, c, f, s):
    I = random_model(FULL_SIG._replace(max_worlds=n), seed)
    assert validate_interpretation(I).ok and not ref_violations(I)
    assert_kernel_agrees(I, c, f, s)


@pytest.fixture(scope="module")
def three_world_models():
    """Every interpretation over <= 3 worlds, atom A, role R, nominal x."""
    return list(enumerate_models(Signature(atoms=("A",), roles=("R",),
                                           nominals=("x",), max_worlds=3)))


def _probe(a):
    """A concept using every constructor, over the base concept a."""
    return And(Or(Not(a), Exists("R", Subs(a, BOT))),
               Subs(Forall("R", Not(Not(a))), Exists("R", TOP)))


_PROBE_FORMULA = parse_formula("x : all R.(A | not A)")
_PROBE_SEQUENTS = [parse_sequent(t) for t in (
    "x : some R.A ; R(x,x) ; A -> all R.A |- x : (A -> some R.A)",
    "all R.A -> A ; x : not not A |- x : A",
    "A -> all R.A |- all R.A",
)]


def test_relation_tables_are_built_on_first_use():
    for n in range(1, 6):
        for rows in product(range(1 << n), repeat=n) if n < 3 else [
                tuple(random.Random(n + i).randrange(1 << n) for _ in range(n)) for i in range(50)]:
            r = _Rows(rows)
            assert not r     # no table before the first lookup
            assert r[1] == _none(rows, 1) and set(r) == {1}     # filled mask by mask
            assert r == _Rows(rows) and not (r != _Rows(rows))     # equal by rows, whatever the tables
            assert [r[m] for m in range(1 << n)] == [_none(rows, m) for m in range(1 << n)]
            assert r == _Rows(rows) and not (r != _Rows(rows))


def test_lane_tables_read_the_relation_none_table():
    rng = random.Random(7)
    for n in range(1, 4):
        for rows in product(range(1 << n), repeat=n):       # every relation on n worlds
            rel = _Rows(rows)
            for size in range(1, 5):
                lanes = _Bytewise(rel, size)
                assert sorted(rel) == list(range(1 << n))    # one table for kernels and lanes
                for _ in range(4):
                    ms = [rng.randrange(1 << n) for _ in range(size)]
                    m = sum(x << 8 * i for i, x in enumerate(ms))
                    assert lanes[m] == sum(_none(rows, x) << 8 * i for i, x in enumerate(ms))


def test_each_role_relation_keeps_one_cover():
    for n in range(1, 4):
        up = _Rows(tuple(1 << i for i in range(n)))
        for rows in product(range(1 << n), repeat=n):       # every relation on n worlds
            rel = _Rows(rows)
            kernels = [_Kernel(tuple(range(n)), up, {"R": rel}) for _ in range(2)]
            for role in ("R", "S"):     # S is undeclared: the empty relation
                cover, succ = kernels[0].cover(role), kernels[0].rel(role).rows
                assert kernels[0].cover(role) is cover is kernels[1].cover(role)
                assert [cover[m] for m in range(1 << n)] == [
                    sum(1 << i for i, row in enumerate(succ) if m & ~row == 0)
                    for m in range(1 << n)]


def test_kernel_agrees_with_reference_on_every_small_frame():
    # every frame of <= 3 worlds with one role; atoms are drawn below
    probe = _probe(Exists("R", TOP))
    for I in enumerate_models(Signature(roles=("R",), max_worlds=3)):
        assert validate_interpretation(I).ok and not ref_violations(I)
        assert extension(I, probe) == ref_extension(I, probe, {})


@settings(max_examples=200, deadline=None)
@given(st.data(), _concepts, _formulas, _sequents)
def test_kernel_agrees_with_reference_on_enumerated_models(three_world_models, data,
                                                            c, f, s):
    I = three_world_models[data.draw(st.integers(0, len(three_world_models) - 1))]
    for probe in _PROBE_SEQUENTS:
        assert_kernel_agrees(I, _probe(A), _PROBE_FORMULA, probe)
    # the family assigns x only; read y as x so no nominal dangles
    rename = {"x": "x", "y": "x"}
    s = Sequent(frozenset(_rename(m, rename) for m in s.antecedent),
                _rename(s.succedent, rename))
    assert_kernel_agrees(I, c, _rename(f, rename), s)


def _rename(f, mapping):
    if isinstance(f, RoleAssertion):
        return RoleAssertion(mapping[f.subject], f.role, mapping[f.object])
    if isinstance(f, NominalAssertion):
        return NominalAssertion(mapping[f.nominal], _rename(f.body, mapping))
    return f


_WORLDS = ["u", "v", "w", 0, 2, 10]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_violation_lists_match_reference_on_raw_models(data):
    worlds = data.draw(st.lists(st.sampled_from(_WORLDS), min_size=1, max_size=4,
                                unique=True))
    pairs = st.lists(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)),
                     max_size=8)
    I = Interpretation.make(
        worlds, data.draw(pairs),
        roles={"R": data.draw(pairs), "S": data.draw(pairs)},
        atoms={"A": data.draw(st.sets(st.sampled_from(worlds)))},
        nominals={"x": data.draw(st.sampled_from(worlds + ["dangling"]))})
    report = validate_interpretation(I)
    assert report.violations == ref_violations(I)
    assert report.ok == (not ref_violations(I))


def test_violation_lists_of_bad_models_unchanged():
    bad_models = [
        Interpretation.make(["w", "w2"], [("w", "w"), ("w2", "w2"), ("w", "w2")],
                            atoms={"A": ["w"]}),
        Interpretation.make(["w", "w2", "v"],
                            [("w", "w"), ("w2", "w2"), ("v", "v"), ("w", "w2")],
                            roles={"R": [("w", "v")]}),
        Interpretation.make(["w", "v", "v2"],
                            [("w", "w"), ("v", "v"), ("v2", "v2"), ("v", "v2")],
                            roles={"R": [("w", "v")]}),
        Interpretation.make(["a", "b", "c"], [("a", "b"), ("b", "c")],
                            nominals={"x": "zzz"}),
    ]
    for I in bad_models:
        assert validate_interpretation(I).violations == ref_violations(I)
    # pinned, in order, with witnesses
    assert [str(v) for v in validate_interpretation(bad_models[1]).violations] == [
        "F1('R', 'w', 'w2', 'v')"]
    assert [str(v) for v in validate_interpretation(bad_models[2]).violations] == [
        "F2('R', 'w', 'v', 'v2')"]
    assert [str(v) for v in validate_interpretation(bad_models[3]).violations] == [
        "reflexivity('a',)", "reflexivity('b',)", "reflexivity('c',)",
        "transitivity('a', 'b', 'c')", "dangling-nominal('x', 'zzz')"]


def test_fault_generator_order_is_pinned():
    # the raw fault stream, in the order a yes/no check meets it
    rng = random.Random(13)
    digest = hashlib.sha256()
    for _ in range(800):
        n = rng.randint(1, 6)
        up = [sum(1 << j for j in range(n) if rng.random() < 0.5) for _ in range(n)]
        atoms = {"A": rng.randrange(1 << n)}
        roles = {r: tuple(rng.randrange(1 << n) for _ in range(n)) for r in "RS"}
        digest.update(repr(list(_faults(up, atoms, roles))).encode())
    assert digest.hexdigest() == "dd3af597b83f1f5d53eccff11e1f86d1e76dc82226e62e41dda0f1bd94a40c55"
