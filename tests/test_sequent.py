import pytest

from ialc.sequent import (
    CheckResult, ProofTree, RuleParams, check_proof, check_step,
    load_proof, save_proof, tree_from_dict, tree_to_dict,
)
from ialc.syntax import ParseError, parse_formula, parse_sequent
from ref_sequent import ref_check_step

S = parse_sequent
F = parse_formula


def step(rule, premises, conclusion, **kw):
    params = RuleParams(
        principal=F(kw["principal"]) if "principal" in kw else None,
        role=kw.get("role"), nominal=kw.get("nominal"), prefix=kw.get("prefix"),
        cut_formula=F(kw["cut"]) if "cut" in kw else None)
    return check_step(rule, params, [S(p) for p in premises], S(conclusion))


# ---------------------------------------------------------------------------
# Initial sequents
# ---------------------------------------------------------------------------

def test_axiom():
    assert step("axiom", [], "A ; B |- A")
    assert step("axiom", [], "x : A ; B |- x : A")
    assert step("axiom", [], "R(x,y) ; A |- R(x,y)")
    assert not step("axiom", [], "A ; B |- C")
    assert not step("axiom", [], "x : A |- y : A")


def test_bot_left():
    assert step("bot-l", [], "R(x,y) ; y : bot |- x : bot")
    assert step("bot-l", [], "bot |- C")
    assert not step("bot-l", [], "A |- bot")
    assert not step("bot-l", [], "x : not bot |- A")


def test_initial_rules_take_no_premises():
    assert not step("axiom", ["A |- A"], "A |- A")
    t = ProofTree(S("A |- A"), "axiom",
                  premises=(ProofTree(S("A |- A"), "axiom"),))
    assert not check_proof(t).ok


# ---------------------------------------------------------------------------
# Role quantification rules
# ---------------------------------------------------------------------------

def test_forall_r():
    assert step("forall-r", ["R(x,y) |- y : A"], "|- x : all R.A")
    assert step("forall-r", ["B ; R(x,y) |- y : A"], "B |- x : all R.A")
    # context must match exactly up to the added edge
    assert not step("forall-r", ["R(x,y) ; C |- y : A"], "|- x : all R.A")
    assert not step("forall-r", ["S(x,y) |- y : A"], "|- x : all R.A")
    # the witness must be fresh for the conclusion (eigenvariable condition)
    assert not step("forall-r", ["y : B ; R(x,y) |- y : A"], "y : B |- x : all R.A")


def test_forall_l():
    assert step("forall-l",
                ["R(x,y) ; x : all R.A ; y : A |- C"],
                "R(x,y) ; x : all R.A |- C")
    # the quantified assertion stays in the premise
    assert not step("forall-l",
                    ["R(x,y) ; y : A |- C"],
                    "R(x,y) ; x : all R.A |- C")
    # needs the matching edge in the conclusion
    assert not step("forall-l",
                    ["x : all R.A ; y : A |- C"],
                    "x : all R.A |- C")


def test_exists_r():
    assert step("exists-r",
                ["R(x,y) ; y : A |- R(x,y)", "R(x,y) ; y : A |- y : A"],
                "R(x,y) ; y : A |- x : some R.A")
    # both premises share the conclusion's context
    assert not step("exists-r",
                    ["R(x,y) |- R(x,y)", "R(x,y) ; y : A |- y : A"],
                    "R(x,y) ; y : A |- x : some R.A")
    # role premise must name the same role and subject
    assert not step("exists-r",
                    ["R(z,y) ; y : A |- R(z,y)", "R(z,y) ; y : A |- y : A"],
                    "R(z,y) ; y : A |- x : some R.A")
    # the edge is read off the first premise; the antecedent need not hold it
    assert step("exists-r", ["x : bot |- R(x,y)", "x : bot |- y : A"],
                "x : bot |- x : some R.A")


def test_exists_l_and_freshness():
    assert step("exists-l",
                ["R(x,y) ; y : A |- C"],
                "x : some R.A |- C")
    # the witness may not occur in the conclusion
    assert not step("exists-l",
                    ["R(x,y) ; y : A ; y : B |- C"],
                    "x : some R.A ; y : B |- C")
    assert not step("exists-l",
                    ["R(x,y) ; y : A |- y : A"],
                    "x : some R.A |- y : A")
    # explicit witness parameter is honored
    assert step("exists-l", ["R(x,z) ; z : A |- C"], "x : some R.A |- C",
                nominal="z", principal="x : some R.A")
    assert not step("exists-l", ["R(x,z) ; z : A |- C"], "x : some R.A |- C",
                    nominal="w")


def test_a_stated_role_must_match_the_quantifier():
    # each stated param is compared with the field the rule instance sets;
    # the previous checker ignored a stated role on these three rules
    cases = {
        "exists-r": (["R(x,y) ; y : A |- R(x,y)", "R(x,y) ; y : A |- y : A"],
                     "R(x,y) ; y : A |- x : some R.A"),
        "exists-l": (["R(x,y) ; y : A |- C"], "x : some R.A |- C"),
        "forall-l": (["R(x,y) ; x : all R.A ; y : A |- C"], "R(x,y) ; x : all R.A |- C"),
    }
    for rule, (premises, conclusion) in cases.items():
        assert step(rule, premises, conclusion, role="R")
        assert not step(rule, premises, conclusion, role="S")
        assert ref_check_step(rule, RuleParams(role="S"), [S(p) for p in premises], S(conclusion))


# ---------------------------------------------------------------------------
# Propositional rules and their nominal variants
# ---------------------------------------------------------------------------

def test_sub_r_variants():
    assert step("sub-r", ["G ; A |- B"], "G |- A -> B")
    assert step("n-sub-r", ["G ; x : A |- x : B"], "G |- x : (A -> B)")
    # the variants do not cross over
    assert not step("sub-r", ["G ; x : A |- x : B"], "G |- x : (A -> B)")
    assert not step("n-sub-r", ["G ; A |- B"], "G |- A -> B")
    # shared outer nominal is required
    assert not step("n-sub-r", ["G ; x : A |- y : B"], "G |- x : (A -> B)")


def test_sub_l_variants():
    assert step("sub-l", ["A |- A", "B |- B"], "A -> B ; A |- B")
    assert step("sub-l", ["A -> B ; A |- A", "A ; B |- B"], "A -> B ; A |- B")
    assert step("n-sub-l",
                ["R(x,y) ; y : A |- x : some R.A",
                 "R(x,y) ; x : all R.B ; y : A |- y : B"],
                "R(x,y) ; x : (some R.A -> all R.B) ; y : A |- y : B",
                principal="x : (some R.A -> all R.B)")
    assert not step("sub-l", ["A |- A", "B |- B"], "A -> B ; A |- C")


def test_and_rules():
    assert step("and-r", ["G |- A", "G |- B"], "G |- A & B")
    assert step("and-l", ["G ; A ; B |- C"], "G ; A & B |- C")
    assert step("n-and-r", ["|- x : A", "|- x : B"], "|- x : (A & B)")
    assert step("n-and-l", ["x : A ; x : B |- C"], "x : (A & B) |- C")
    assert not step("and-r", ["G |- A", "G |- C"], "G |- A & B")
    assert not step("and-l", ["G ; A |- C"], "G ; A & B |- C")


def test_or_rules():
    assert step("or1-r", ["G |- A"], "G |- A | B")
    assert step("or2-r", ["G |- B"], "G |- A | B")
    assert not step("or1-r", ["G |- B"], "G |- A | B")
    assert step("or-l", ["G ; A |- C", "G ; B |- C"], "G ; A | B |- C")
    assert step("n-or-l", ["x : A |- C", "x : B |- C"], "x : (A | B) |- C")
    assert not step("or-l", ["G ; A |- C", "G ; B |- D"], "G ; A | B |- C")


# ---------------------------------------------------------------------------
# Promotion rules
# ---------------------------------------------------------------------------

def test_p_exists():
    assert step("p-exists", ["A -> B ; A |- B"],
                "all R.(A -> B) ; some R.A |- some R.B")
    # assertions ride through unmodified
    assert step("p-exists", ["z : C ; A -> B ; A |- B"],
                "z : C ; all R.(A -> B) ; some R.A |- some R.B")
    # a leftover bare concept blocks the promotion
    assert not step("p-exists", ["A -> B ; A |- B"],
                    "A -> B ; some R.A |- some R.B")
    assert not step("p-exists", ["A -> B ; A |- B"],
                    "all S.(A -> B) ; some R.A |- some R.B")
    # the premise antecedent is a set, so the diamond body may also be a box body
    assert step("p-exists", ["A |- A | B"], "some R.A ; all R.A |- some R.(A | B)")
    assert step("p-exists", ["A ; B |- A"], "some R.A ; all R.A ; all R.B |- some R.A")
    # every other premise member must still come from a box
    assert not step("p-exists", ["A ; C |- A | B"], "some R.A ; all R.A |- some R.(A | B)")
    assert not step("p-exists", ["A ; B |- B"], "all R.A ; some R.A |- some R.B")
    assert not step("p-exists", ["A |- A | B"], "all R.A |- some R.(A | B)")


def test_p_forall():
    assert step("p-forall", ["A -> B ; A |- B"],
                "all R.(A -> B) ; all R.A |- all R.B")
    # empty context: this is how necessitation embeds
    assert step("p-forall", ["|- A -> A"], "|- all R.(A -> A)")
    assert step("p-forall", ["R(u,v) ; A |- A"], "R(u,v) ; all R.A |- all R.A")
    assert not step("p-forall", ["A |- A"], "some R.A |- all R.A")


def test_p_nom():
    assert step("p-nom", ["A |- B"], "x : A |- x : B")
    assert step("p-nom", ["R(y,z) ; A |- B"], "R(y,z) ; x : A |- x : B")
    # an assertion goal passes through unprefixed
    assert step("p-nom", ["A |- R(y,z)"], "x : A |- R(y,z)", prefix="x")
    assert not step("p-nom", ["A |- B"], "x : A |- y : B")
    assert not step("p-nom", ["A |- B"], "A |- x : B")
    # a lifted antecedent has no bare concept, so a step proving itself with
    # one is no p-nom step; the previous checker accepted it when nothing
    # in the antecedent was prefixed and no prefix was stated
    assert not step("p-nom", ["A |- R(x,y)"], "A |- R(x,y)")
    assert ref_check_step("p-nom", None, [S("A |- R(x,y)")], S("A |- R(x,y)"))
    assert step("p-nom", ["R(x,y) |- R(x,y)"], "R(x,y) |- R(x,y)", prefix="z")


# ---------------------------------------------------------------------------
# Structural rules
# ---------------------------------------------------------------------------

def test_cut_accepted_with_matching_formula():
    assert step("cut", ["G |- A", "G ; A |- B"], "G |- B")
    assert step("cut", ["G |- A", "G ; A |- B"], "G |- B", cut="A")
    assert not step("cut", ["G |- A", "G ; C |- B"], "G |- B")
    assert not step("cut", ["G |- A", "G ; A |- B"], "G |- B", cut="C")


def test_weaken():
    assert step("weaken", ["A |- A"], "A ; B ; x : C |- A")
    assert not step("weaken", ["A |- A"], "B |- A")
    assert not step("weaken", ["A |- A"], "A ; B |- B")


def test_unknown_rule_rejected():
    assert not step("mystery-rule", [], "A |- A")
    t = ProofTree(S("A |- A"), "n-forall-r")
    r = check_proof(t)
    assert not r.ok and "unknown rule" in r.reason


# ---------------------------------------------------------------------------
# Whole proofs
# ---------------------------------------------------------------------------

def test_check_proof_reports_first_bad_node_path(golden_trees):
    good = golden_trees[1]
    assert check_proof(good) == CheckResult(True)
    # swapping the promotion for its universal sibling must be caught
    bad = ProofTree(good.conclusion, good.rule, good.params,
                    (ProofTree(good.premises[0].conclusion, "p-forall",
                               good.premises[0].params,
                               good.premises[0].premises),))
    r = check_proof(bad)
    assert not r.ok and r.path == (0,)


def test_cut_node_checks_inside_a_proof():
    ax1 = ProofTree(S("A |- A"), "axiom")
    ax2 = ProofTree(S("A |- A"), "axiom")
    t = ProofTree(S("A |- A"), "cut", RuleParams(cut_formula=F("A")), (ax1, ax2))
    assert check_proof(t).ok


def test_proof_file_roundtrip(tmp_path, golden_trees):
    for i, tree in golden_trees.items():
        path = tmp_path / f"t{i}.prf"
        save_proof(tree, str(path))
        assert load_proof(str(path)) == tree


def test_tree_dict_roundtrip(golden_trees):
    for tree in golden_trees.values():
        assert tree_from_dict(tree_to_dict(tree)) == tree


# A later node of a proof file with a malformed member, after the earlier
# nodes' members were parsed: the error is the parser's on the whole text.
@pytest.mark.parametrize("where,text,error", [
    ("conclusion", "A -> B ; A |- B & (C", "1:21: unexpected end of input (expected ')')"),
    ("conclusion", "A -> B ; A B |- B", "1:12: unexpected 'B' (expected '|-')"),
    ("conclusion", "A -> B ; A |- ", "1:15: unexpected end of input (expected succedent formula)"),
    ("conclusion", "A -> B ; ; A |- B", "1:10: unexpected ';' (expected concept)"),
    ("conclusion", "A -> B ; A |- B |- A", "1:17: unexpected '|-' (expected end of input)"),
    ("conclusion", "A -> B ; A $ |- B", "1:12: unexpected character '$'"),
    ("conclusion", "A -> B ; A # c |- B", "1:20: unexpected end of input (expected '|-')"),
    ("conclusion", "A -> B\n ; A -> |- B", "2:9: unexpected '|-' (expected concept)"),
    ("principal", "A -> ", "1:6: unexpected end of input (expected concept)"),
    ("principal", "A -> B ; A", "1:8: unexpected ';' (expected end of input)"),
    # whitespace that the lexer does not skip, at the edge of a member
    ("conclusion", "A -> B ; \x0cA |- B", "1:10: unexpected character '\\x0c'"),
    ("conclusion", "A -> B ; A\xa0 |- B", "1:11: unexpected character '\\xa0'"),
    ("principal", "A -> B\x0b", "1:7: unexpected character '\\x0b'"),
])
def test_malformed_member_of_a_later_node_reports_the_parse_error(where, text, error):
    node = {"rule": "axiom", "conclusion": "A -> B ; A |- B"}
    if where == "principal":
        node["params"] = {"principal": text}
    else:
        node["conclusion"] = text
    doc = {"rule": "sub-l", "conclusion": "A -> B ; A |- B", "params": {"principal": "A -> B"},
           "premises": [{"rule": "axiom", "conclusion": "A -> B ; A |- A"}, node]}
    with pytest.raises(ParseError) as exc:
        tree_from_dict(doc)
    assert str(exc.value) == error
