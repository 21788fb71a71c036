import json
import os
import re
import sys

import pytest

from ialc import cli
from ialc.cli import run
from ialc.hilbert import AXIOM_ROOTS
from ialc.sequent import check_proof, load_proof, prove
from ialc.semantics import load_model, sequent_valid
from ialc.syntax import parse_sequent


def invoke(capsys, *args):
    rc = run(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# prove / check
# ---------------------------------------------------------------------------

def test_prove_emits_checkable_proof(tmp_path, capsys, golden_dir):
    proof = tmp_path / "a1.prf"
    rc, out, _ = invoke(capsys, "prove", str(golden_dir / "axiom1.ialc"),
                        "--depth", "16", "--emit-proof", str(proof))
    assert rc == 0 and out.startswith("proved")
    rc, out, _ = invoke(capsys, "check", str(proof))
    assert rc == 0 and out.strip() == "accepted"


@pytest.mark.parametrize("name", ["axiom1", "axiom2", "axiom3", "axiom4",
                                  "axiom5"])
def test_prove_check_pipeline_closure(tmp_path, capsys, golden_dir, name):
    proof = tmp_path / f"{name}.prf"
    rc, _, _ = invoke(capsys, "prove", str(golden_dir / f"{name}.ialc"),
                      "--emit-proof", str(proof))
    assert rc == 0
    assert check_proof(load_proof(str(proof))).ok


def test_prove_with_theory_section(tmp_path, capsys):
    prob = tmp_path / "chain.ialc"
    prob.write_text("theory:\n  A -> B\n  B -> C\nassume:\n  A\ngoal:\n  C\n")
    proof = tmp_path / "chain.prf"
    rc, out, _ = invoke(capsys, "prove", str(prob), "--emit-proof", str(proof))
    assert rc == 0 and out.startswith("proved")
    assert check_proof(load_proof(str(proof))).ok


def test_prove_unknown_exit_code(capsys, golden_dir):
    rc, out, _ = invoke(capsys, "prove", str(golden_dir / "lem.ialc"))
    assert rc == 2 and out.startswith("unknown")


def test_unproved_goal_removes_an_earlier_proof(tmp_path, capsys, golden_dir):
    proof, lem = tmp_path / "f.prf", str(golden_dir / "lem.ialc")
    rc, _, _ = invoke(capsys, "prove", str(golden_dir / "axiom1.ialc"), "--emit-proof", str(proof))
    assert rc == 0 and proof.exists()
    rc, out, _ = invoke(capsys, "prove", lem, "--emit-proof", str(proof))
    assert (rc, out) == (2, invoke(capsys, "prove", lem)[1])
    assert not proof.exists()
    assert invoke(capsys, "check", str(proof))[0] == 3


def test_unproved_goal_removes_only_a_regular_file(tmp_path, capsys, golden_dir):
    # a device, a directory and a missing path stay as they are; a symlink to a
    # regular file loses the link and keeps its target
    target, link, folder = tmp_path / "target.prf", tmp_path / "link.prf", tmp_path / "dir"
    target.write_text("kept\n")
    link.symlink_to(target)
    folder.mkdir()
    for path in (os.devnull, folder, tmp_path / "missing.prf", link):
        rc, _, _ = invoke(capsys, "prove", str(golden_dir / "lem.ialc"), "--emit-proof", str(path))
        assert rc == 2, path
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull) and folder.is_dir()
    assert not (tmp_path / "missing.prf").exists()
    assert not os.path.lexists(link) and target.read_text() == "kept\n"


@pytest.mark.parametrize("problem,flags,stop", [
    ("lem", [], "search space exhausted"),
    ("lem", ["--depth", "1"], "depth budget ran out"),
    ("axiom5", ["--visited", "3"], "visited budget ran out"),
])
def test_prove_unknown_names_the_budget(capsys, golden_dir, problem, flags, stop):
    rc, out, _ = invoke(capsys, "prove", str(golden_dir / f"{problem}.ialc"), *flags)
    assert rc == 2 and out.startswith(f"unknown, {stop} (depth ")
    assert re.search(r"visited \d+\)", out)


def test_prove_unknown_says_subsumptions_were_read_locally(capsys, tmp_path):
    # countermodel and eval read A -> B at every world, the search only where it is assumed
    prob = tmp_path / "tbox.ialc"
    prob.write_text("assume:\n  A -> B\ngoal:\n  some R.A -> some R.B\n")
    rc, out, _ = invoke(capsys, "prove", str(prob))
    assert (rc, out) == (2, "unknown, search space exhausted under the local reading of the "
                            "antecedent's subsumptions (depth 24, visited 4): "
                            "A -> B |- some R.A -> some R.B\n")
    rc, out, _ = invoke(capsys, "countermodel", str(prob), "--max-worlds", "3")
    assert rc == 0 and out.startswith("no countermodel with up to 3 worlds")
    rc, out, _ = invoke(capsys, "countermodel", str(prob), "--max-worlds", "3", "--tbox-local")
    assert rc == 1 and out.startswith("countermodel with 2 worlds")


def test_prove_then_check_accepts_merged_p_exists(tmp_path, capsys):
    # the search's p-exists premise merges the box body A with the diamond body A
    prob = tmp_path / "merge.ialc"
    prob.write_text("assume:\n  some R.A\n  all R.A\ngoal:\n  some R.(A | B)\n")
    proof = tmp_path / "merge.prf"
    rc, _, _ = invoke(capsys, "prove", str(prob), "--emit-proof", str(proof))
    assert rc == 0
    assert "p-exists" in proof.read_text()
    rc, out, _ = invoke(capsys, "check", str(proof))
    assert rc == 0 and out.strip() == "accepted"


def test_check_rejects_bad_tree(tmp_path, capsys, golden_dir):
    doc = json.loads((golden_dir / "axiom1.prf").read_text())
    doc["rule"] = "p-nom"
    bad = tmp_path / "bad.prf"
    bad.write_text(json.dumps(doc))
    rc, out, _ = invoke(capsys, "check", str(bad))
    assert rc == 1 and out.startswith("rejected")


def test_check_hilbert_file(capsys, golden_dir, tmp_path):
    rc, out, _ = invoke(capsys, "check", str(golden_dir / "identity.hpf"))
    assert rc == 0 and out.strip() == "accepted"
    text = (golden_dir / "identity.hpf").read_text().replace(
        "A -> A ; mp 1 4", "B -> B ; mp 1 4")
    bad = tmp_path / "bad.hpf"
    bad.write_text(text)
    rc, out, _ = invoke(capsys, "check", str(bad))
    assert rc == 1 and "rejected at line" in out
    # an unknown schema and an empty binding list are rejected lines, not input errors
    for line, reason in [("A -> A ; ipl a99 [C := A]", "unknown schema 'ipl a99'"),
                         ("A -> (A -> A) ; ipl a1 []", "missing binding for metavariable C")]:
        bad.write_text(line + "\n")
        rc, out, _ = invoke(capsys, "check", str(bad))
        assert (rc, out) == (1, f"rejected at line 1: {reason}\n"), line


# ---------------------------------------------------------------------------
# countermodel / eval
# ---------------------------------------------------------------------------

def test_countermodel_eval_pipeline(tmp_path, capsys, golden_dir):
    model = tmp_path / "lem.model"
    rc, out, _ = invoke(capsys, "countermodel", str(golden_dir / "lem.ialc"),
                        "--max-worlds", "2", "--emit-model", str(model))
    assert rc == 1 and out.startswith("countermodel with 2 worlds")
    rc, out, _ = invoke(capsys, "eval", "--model", str(model),
                        "--sequent", "|- A | not A")
    assert rc == 1 and out.strip() == "sequent invalid on model"
    loaded, _ = load_model(str(model))
    assert not sequent_valid(loaded, parse_sequent("|- A | not A"))


def test_countermodel_none_found(capsys, tmp_path):
    prob = tmp_path / "id.ialc"
    prob.write_text("assume:\n  A\ngoal:\n  A\n")
    rc, out, _ = invoke(capsys, "countermodel", str(prob), "--max-worlds", "2")
    assert rc == 0 and out.startswith("no countermodel")


@pytest.mark.parametrize("name,enumerated,evaluated,frames", [
    ("lem", {"1": 2, "2": 6}, {"1": 2, "2": 2}, {"1": 1, "2": 2}),
    ("axiom4", {"1": 8, "2": 900}, {"1": 8, "2": 530}, {"1": 2, "2": 42}),
])
def test_countermodel_stats_go_to_stderr_only(capsys, golden_dir, name, enumerated, evaluated,
                                              frames):
    argv = ["countermodel", str(golden_dir / f"{name}.ialc"), "--max-worlds", "2"]
    rc, out, err = invoke(capsys, *argv, "--stats")
    assert (rc, out, "") == invoke(capsys, *argv)
    stats = json.loads(err)
    assert set(stats) == {"enumerated", "evaluated", "frames", "elapsed_s"}
    assert (stats["enumerated"], stats["evaluated"]) == (enumerated, evaluated)
    assert stats["frames"] == frames
    assert stats["elapsed_s"] >= 0 and err.count("\n") == 1


def test_eval_formula_reports(capsys, golden_dir):
    rc, out, _ = invoke(capsys, "eval", "--model",
                        str(golden_dir / "chain.model"), "--formula", "top")
    assert rc == 0 and out.strip() == "valid at all worlds"
    rc, out, _ = invoke(capsys, "eval", "--model",
                        str(golden_dir / "chain.model"),
                        "--formula", "A | not A")
    assert rc == 1 and out.startswith("fails at 1 of 2 worlds")
    rc, out, _ = invoke(capsys, "eval", "--model",
                        str(golden_dir / "chain.model"), "--formula", "x : A")
    assert rc == 1 and out.strip() == "not satisfied"


def test_eval_warns_on_heredity_closure(tmp_path, capsys):
    doc = {"worlds": ["a", "b"], "leq": [["a", "b"]], "atoms": {"A": ["a"]}}
    path = tmp_path / "open.model"
    path.write_text(json.dumps(doc))
    rc, out, err = invoke(capsys, "eval", "--model", str(path),
                          "--formula", "A")
    assert rc == 0 and "warning" in err


def test_eval_raw_loads_frame_violations(tmp_path, capsys):
    doc = {"worlds": ["w", "w2", "v"], "leq": [["w", "w2"]],
           "roles": {"R": [["w", "v"]]}}
    path = tmp_path / "broken.model"
    path.write_text(json.dumps(doc))
    rc, _, err = invoke(capsys, "eval", "--model", str(path), "--formula", "top")
    assert rc == 3 and "frame conditions" in err
    rc, out, _ = invoke(capsys, "eval", "--model", str(path), "--raw",
                        "--formula", "top")
    assert rc == 0


# ---------------------------------------------------------------------------
# axioms / models
# ---------------------------------------------------------------------------

def test_axioms_writes_and_verifies(tmp_path, capsys):
    rc, out, _ = invoke(capsys, "axioms", "--out", str(tmp_path))
    assert rc == 0
    assert out.splitlines() == [f"axiom{i}: accepted -> {tmp_path / f'axiom{i}.prf'}"
                                for i in range(1, 6)]
    for i, root in AXIOM_ROOTS.items():
        written = load_proof(str(tmp_path / f"axiom{i}.prf"))
        assert written == prove(parse_sequent(root)).tree, f"axiom{i}.prf"
        assert check_proof(written).ok


def test_models_count_matches_stream(capsys):
    rc, out, _ = invoke(capsys, "models", "--worlds", "2", "--atoms", "1",
                        "--count-only")
    assert rc == 0 and out.strip() == "14"
    rc, out, _ = invoke(capsys, "models", "--worlds", "2", "--atoms", "1")
    assert rc == 0 and len(out.strip().splitlines()) == 14
    for line in out.strip().splitlines():
        doc = json.loads(line)
        assert "worlds" in doc and "leq" in doc


# ---------------------------------------------------------------------------
# input errors and report stability
# ---------------------------------------------------------------------------

def test_input_errors_exit_3(capsys, tmp_path, golden_dir):
    rc, _, err = invoke(capsys, "prove", "missing.ialc")
    assert rc == 3 and "error:" in err
    rc, _, err = invoke(capsys, "prove", "x", "--bogus")
    assert rc == 3
    rc, _, err = invoke(capsys, "prove", "x", "--tbox-local")
    assert rc == 3 and "--tbox-local" in err
    bad = tmp_path / "bad.ialc"
    bad.write_text("goal:\n  A &&& B\n")
    rc, _, err = invoke(capsys, "prove", str(bad))
    assert rc == 3 and "error:" in err
    rc, _, err = invoke(capsys, "eval", "--model", "nope.model",
                        "--formula", "top")
    assert rc == 3
    # a Hilbert file without a proof line proves nothing
    for text in ("", "# only a comment\n\n"):
        empty = tmp_path / "empty.hpf"
        empty.write_text(text)
        rc, out, err = invoke(capsys, "check", str(empty))
        assert rc == 3 and not out and "no proof lines" in err
    # a Hilbert line without its justification
    empty.write_text("A -> A\n")
    rc, out, err = invoke(capsys, "check", str(empty))
    assert (rc, out, err) == (3, "", "error: 1:1: expected '<concept> ; <justification>'\n")
    # a member with whitespace the lexer does not skip fails as in `ialc eval`
    form_feed = tmp_path / "form_feed.prf"
    form_feed.write_text('{"rule": "axiom", "conclusion": "\\u000cA |- A", "premises": []}')
    rc, out, err = invoke(capsys, "check", str(form_feed))
    assert rc == 3 and not out and "1:1: unexpected character '\\x0c'" in err
    # negative budgets and counts are input errors, not exhausted searches
    lem = str(golden_dir / "lem.ialc")
    for argv in (["prove", lem, "--depth", "-1"], ["prove", lem, "--visited", "-1"],
                 *(["models", "--worlds", "1", flag, "-3", "--count-only"]
                   for flag in ("--atoms", "--roles", "--nominals"))):
        rc, out, err = invoke(capsys, *argv)
        assert rc == 3 and not out and "nonnegative" in err, argv


@pytest.mark.parametrize("name,text,message", [
    ("nbsp.ialc", "goal:\n  A -> A\xa0\n", "2:9: unexpected character '\\xa0'"),
    ("form_feed.ialc", "goal:\n  A\x0c -> A\n", "2:4: unexpected character '\\x0c'"),
    ("nbsp.hpf", "some R.bot -> bot\xa0; ik 4 [R := R]\n", "1:18: unexpected character '\\xa0'"),
])
def test_only_the_lexers_whitespace_is_skipped(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_bytes(text.encode())
    commands = ([["check", str(path)]] if name.endswith(".hpf") else
                [["prove", str(path)], ["countermodel", str(path), "--max-worlds", "2"]])
    for argv in commands:
        rc, out, err = invoke(capsys, *argv)
        assert (rc, out, err) == (3, "", f"error: {message}\n"), argv
    # the same texts with CRLF line ends and ordinary spaces are read as before
    path.write_bytes(text.replace("\xa0", " ").replace("\x0c", " ").replace("\n", "\r\n").encode())
    for argv in commands:
        assert invoke(capsys, *argv)[0] == 0, argv


def test_adversarial_inputs_never_crash(capsys, tmp_path, golden_dir):
    # unassigned nominal in the query
    rc, _, err = invoke(capsys, "eval", "--model",
                        str(golden_dir / "chain.model"), "--formula", "q : A")
    assert rc == 3 and "q" in err
    # proof file with a non-string rule
    bad_tree = tmp_path / "bad_rule.prf"
    bad_tree.write_text('{"rule": 5, "conclusion": "A |- A", "premises": []}')
    rc, _, err = invoke(capsys, "check", str(bad_tree))
    assert rc == 3 and "error:" in err
    # model file with roles given as a list instead of a map
    bad_model = tmp_path / "bad_roles.model"
    bad_model.write_text('{"worlds": ["w"], "roles": [["w", "w"]]}')
    rc, _, err = invoke(capsys, "eval", "--model", str(bad_model),
                        "--formula", "top")
    assert rc == 3 and "error:" in err
    # model file with a string where a leq pair belongs
    bad_pair = tmp_path / "bad_pair.model"
    bad_pair.write_text('{"worlds": ["0", "1"], "leq": ["01"]}')
    rc, out, err = invoke(capsys, "eval", "--model", str(bad_pair), "--formula", "top")
    assert rc == 3 and not out and "leq pair" in err
    # model file that is not even a JSON object
    bad_doc = tmp_path / "list.model"
    bad_doc.write_text('[1, 2, 3]')
    rc, _, err = invoke(capsys, "eval", "--model", str(bad_doc),
                        "--formula", "top")
    assert rc == 3
    # proof file that is valid JSON but not a proof shape
    not_tree = tmp_path / "weird.prf"
    not_tree.write_text('{"conclusion": 7}')
    rc, _, err = invoke(capsys, "check", str(not_tree))
    assert rc == 3
    # proof and model files nested past the interpreter's recursion limit
    node = '{"rule": "weaken", "conclusion": "A |- A", "premises": ['
    deep_tree = tmp_path / "deep.prf"
    deep_tree.write_text(node * 500 + '{"rule": "axiom", "conclusion": "A |- A"}'
                         + "]}" * 500)
    rc, _, err = invoke(capsys, "check", str(deep_tree))
    assert rc == 3 and "error:" in err
    deep_model = tmp_path / "deep.model"
    deep_model.write_text('{"worlds": ' + "[" * 2000 + "]" * 2000 + "}")
    rc, _, err = invoke(capsys, "eval", "--model", str(deep_model), "--formula", "top")
    assert rc == 3 and "error:" in err
    # a goal nested 3,000 deep is a positioned input error, not a crash
    deep = tmp_path / "deep.ialc"
    deep.write_text("goal:\n  " + "not " * 3000 + "A\n")
    rc, _, err = invoke(capsys, "prove", str(deep))
    assert rc == 3 and "2:" in err and "nested deeper" in err
    # an error on an indented line is placed at its column on the raw line
    indented = tmp_path / "indented.ialc"
    indented.write_text("goal:\n    A & \n")
    rc, _, err = invoke(capsys, "prove", str(indented))
    assert rc == 3 and "error: 2:9: unexpected end of input" in err


def test_reports_are_byte_stable(capsys, golden_dir):
    first = invoke(capsys, "countermodel", str(golden_dir / "dne.ialc"),
                   "--max-worlds", "2")
    second = invoke(capsys, "countermodel", str(golden_dir / "dne.ialc"),
                    "--max-worlds", "2")
    assert first == second
    a = invoke(capsys, "prove", str(golden_dir / "axiom5.ialc"))
    b = invoke(capsys, "prove", str(golden_dir / "axiom5.ialc"))
    assert a == b


# argv lists per subcommand: every option, the --opt=value form, an
# abbreviation, and the errors a user meets
DISPATCH = {
    "prove": [
        ["prove", "p.ialc"],
        ["prove", "p.ialc", "--depth", "3", "--visited", "10", "--emit-proof", "f.prf"],
        ["prove", "--depth=3", "--visited=10", "--emit-proof=f.prf", "p.ialc"],
        ["prove", "p.ialc", "--dep", "3", "--emit", "f.prf"],
        ["prove", "p.ialc", "--depth", "-1"],
        ["prove"],
        ["prove", "p.ialc", "--depth", "x"],
        ["prove", "p.ialc", "--tbox-local"],
        ["prove", "p.ialc", "q.ialc"],
    ],
    "check": [
        ["check", "f.prf"],
        ["check", "--", "-f.prf"],
        ["check"],
        ["check", "f.prf", "--bogus"],
    ],
    "countermodel": [
        ["countermodel", "p.ialc", "--max-worlds", "2", "--emit-model", "m.model",
         "--tbox-local", "--stats"],
        ["countermodel", "p.ialc", "--max-worlds=2", "--emit-model=m.model"],
        ["countermodel", "p.ialc", "--max", "2"],
        ["countermodel", "p.ialc"],
        ["countermodel", "p.ialc", "--max-worlds"],
        ["countermodel", "p.ialc", "--max-worlds", "2", "--nope"],
    ],
    "eval": [
        ["eval", "--model", "m.model", "--formula", "A", "--tbox-local", "--raw"],
        ["eval", "--model=m.model", "--sequent=A |- B"],
        ["eval", "--sequent", "|- x : A", "--model", "m.model"],
        ["eval", "--model", "m.model", "--formula", "A", "--sequent", "A |- A"],
        ["eval", "--model", "m.model"],
        ["eval", "--formula", "A"],
        ["eval", "--model", "m.model", "--formula", "A", "--unknown"],
    ],
    "axioms": [
        ["axioms"],
        ["axioms", "--out", "d"],
        ["axioms", "--out=d"],
        ["axioms", "--o", "d"],
        ["axioms", "extra"],
    ],
    "models": [
        ["models", "--worlds", "2", "--atoms", "1", "--roles", "1", "--nominals", "1",
         "--count-only"],
        ["models", "--worlds=2", "--atoms=1", "--roles=0", "--nominals=2"],
        ["models", "--w", "1", "--count"],
        ["models"],
        ["models", "--worlds", "1", "--bogus"],
    ],
}


@pytest.mark.parametrize("command", sorted(DISPATCH))
def test_subcommand_parser_reads_argv_as_the_full_parser(command, capsys, monkeypatch):
    """run hands argv past its first word to that subcommand's parser; each
    argv must give the Namespace, or the error, of the whole parser."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(args) or 0)
    errors = 0
    for argv in DISPATCH[command]:
        seen.clear()
        try:
            expected = cli._build_parser().parse_args(argv)
        except cli._CliError as e:
            errors += 1
            assert invoke(capsys, *argv) == (3, "", f"error: {e}\n"), argv
            assert not seen, argv
        else:
            assert invoke(capsys, *argv) == (0, "", ""), argv
            assert seen == [expected] and seen[0].command == command, argv
    assert 0 < errors < len(DISPATCH[command])


def test_an_argv_naming_no_subcommand_goes_to_the_top_level_parser(capsys, monkeypatch):
    assert invoke(capsys) == (3, "", "error: the following arguments are required: command\n")
    rc, out, err = invoke(capsys, "bogus")
    assert (rc, out) == (3, "") and err.startswith("error: argument command: invalid choice: "
                                                   "'bogus' (choose from ")
    for argv in (["-h"], ["countermodel", "--help"]):
        with pytest.raises(SystemExit) as stop:
            run(argv)
        assert stop.value.code == 0
        shown = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        assert capsys.readouterr().out == shown and shown.startswith("usage: ialc")
    # with no argv, run reads the process's arguments
    monkeypatch.setattr(sys, "argv", ["ialc", "models", "--worlds", "1", "--count-only"])
    assert run() == 0 and capsys.readouterr().out == "1\n"


def test_shared_parser_carries_no_option_over(tmp_path, capsys, monkeypatch, golden_dir):
    """One parser serves every run call; each call must behave as with a
    freshly built parser, whatever flags the previous call gave."""
    tbox = tmp_path / "tbox.ialc"
    tbox.write_text("theory:\n  A -> B\nassume:\n  x : A\ngoal:\n  x : B\n")
    proof = tmp_path / "a1.prf"
    chain = str(golden_dir / "chain.model")
    calls = [
        ["countermodel", str(tbox), "--max-worlds", "2", "--tbox-local"],
        ["countermodel", str(tbox), "--max-worlds", "2"],
        ["prove", str(golden_dir / "axiom1.ialc"), "--emit-proof", str(proof)],
        ["prove", str(golden_dir / "axiom1.ialc")],
        ["prove", str(golden_dir / "lem.ialc"), "--depth", "1"],
        ["prove", str(golden_dir / "lem.ialc")],
        ["eval", "--model", chain, "--sequent", "A |- B", "--tbox-local", "--raw"],
        ["eval", "--model", chain, "--formula", "A"],
        ["models", "--worlds", "1", "--atoms", "1", "--count-only"],
        ["models", "--worlds", "1"],
        ["prove", "x", "--bogus"],
        ["check", str(golden_dir / "identity.hpf")],
    ]
    shared = [invoke(capsys, *argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    built, build = [cli._build_parser()], cli._build_parser.__wrapped__

    def fresh_parser():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", fresh_parser)
    fresh = [invoke(capsys, *argv) for argv in calls]
    assert shared == fresh
    # each fresh call built subcommand parsers of its own
    subparsers = [sub for parser in built for sub in parser.commands.values()]
    assert len(built) == 1 + len(calls)
    assert len({id(sub) for sub in subparsers}) == len(subparsers) == 6 * len(built)
    assert [rc for rc, _, _ in shared] == [1, 0, 0, 0, 2, 2, 1, 1, 0, 0, 3, 0]
    assert "proof written" in shared[2][1] and "proof written" not in shared[3][1]
