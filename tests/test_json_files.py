"""Proof and model files, and the printed countermodel: one indent-2 JSON
writer (``semantics._json``) whose text is ``json.dumps(doc, indent=2)``'s,
and one file write (``semantics._save_json``) that writes over an existing
file in place and then cuts it at the new end."""

import json
import os
import stat
from collections import OrderedDict
from http import HTTPStatus
from pathlib import Path

import pytest

from ialc.cli import run
from ialc.modelgen import signature_for
from ialc.semantics import ModelFileError, _json, model_from_dict, model_to_dict, save_model
from ialc.sequent import find_countermodel, prove, save_proof, tree_to_dict
from ialc.syntax import parse_problem

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def pool(section: str) -> list:
    return json.loads((POOL / f"{section}.json").read_text())


def assert_dumps_text(docs) -> int:
    n = 0
    for doc in docs:
        assert _json(doc) == json.dumps(doc, indent=2), doc
        n += 1
    return n


# ---------------------------------------------------------------------------
# The text is json.dumps(doc, indent=2)'s
# ---------------------------------------------------------------------------

def test_proof_text_of_every_pool_proof_and_golden_tree(golden_trees):
    proved = [e for e in pool("prove") if e["ref"].get("proved")]
    # the depth the benchmark's prove_check ops search to
    trees = [prove(parse_problem(e["text"]).sequent(), max_depth=16).tree for e in proved]
    assert None not in trees
    docs = [tree_to_dict(t) for t in [*trees, *golden_trees.values()]]
    assert assert_dumps_text(docs) == len(proved) + 5


def test_model_text_of_every_pool_countermodel_and_eval_model():
    refuted = [e for e in pool("countermodel") if e["class"].startswith("R")]
    models = []
    for e in refuted:
        goal = parse_problem(e["text"]).sequent()
        models.append(find_countermodel(goal, signature_for(goal, e["max_worlds"])))
    assert None not in models and len(models) == 471
    docs = [model_to_dict(I) for I in models]
    for e in pool("eval"):
        docs.append(e["model"])
        try:
            docs.append(model_to_dict(model_from_dict(e["model"])[0]))
        except ModelFileError:
            pass
    assert assert_dumps_text(docs) > len(models) + len(pool("eval"))


@pytest.mark.parametrize("doc", [
    {}, [], [[]], [[], [[]], {}], {"a": []}, {"a": {}, "b": [{}]},
    True, False, None, 0, -7, 2 ** 70, [True, False, None],
    {"worlds": [0, 1, 12345678901234567890], "nominals": {"x": 1, "y": None}},
    {"worlds": ["wé", "世界", 'say "hi"', "back\\slash", "tab\tnew\nline",
                "\U0001f600", ""],
     "leq": [["wé", "世界"]], "nominals": {"né": 'q"'}},
    # ints are written directly: bools, int subclasses and floats are not ints here
    (), ((), [1, (2, ())]), [True, 1, 1.0, -0.0, 1e300, float("inf")],
    {"n": HTTPStatus.OK, "t": (HTTPStatus.NOT_FOUND,)},
    {"d": OrderedDict(), "e": [OrderedDict(a=[])]},
])
def test_text_of_edge_documents(doc):
    assert _json(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# The file is written over in place
# ---------------------------------------------------------------------------

@pytest.fixture
def tree(golden_trees):
    return golden_trees[3]


@pytest.fixture
def model(golden_dir):
    goal = parse_problem((golden_dir / "lem.ialc").read_text()).sequent()
    return find_countermodel(goal, signature_for(goal, 2))


def write_proof(tree, path):
    save_proof(tree, str(path))
    return json.dumps(tree_to_dict(tree), indent=2) + "\n"


def write_model(model, path):
    save_model(model, str(path))
    return json.dumps(model_to_dict(model), indent=2) + "\n"


@pytest.fixture(params=["proof", "model"])
def write(request, tree, model):
    """A writer and its document: it saves at a path and returns the expected text."""
    if request.param == "proof":
        return lambda path: write_proof(tree, path)
    return lambda path: write_model(model, path)


def test_writing_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, write):
    path = tmp_path / "out.json"
    path.write_text("x" * 10_000 + "\n")
    inode = path.stat().st_ino
    text = write(path)
    assert path.read_bytes() == text.encode()
    assert path.stat().st_ino == inode
    # and over a shorter one
    path.write_text("{}\n")
    text = write(path)
    assert path.read_bytes() == text.encode()


def test_writing_through_a_symlink_updates_the_target_and_keeps_the_link(tmp_path, write):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("y" * 5_000)
    link.symlink_to(target.name)
    text = write(link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == text.encode()


def test_a_new_file_gets_the_mode_of_open_w_under_the_umask(tmp_path, write):
    old = os.umask(0o027)
    try:
        write(tmp_path / "new.json")
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new.json").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode) == 0o640


def test_emit_proof_to_a_directory_is_an_input_error(tmp_path, capsys, golden_dir):
    rc = run(["prove", str(golden_dir / "axiom1.ialc"), "--emit-proof", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 3 and "error:" in err and "proof written" not in out


def test_emit_to_a_device_writes_without_cutting(capsys, golden_dir):
    # /dev/null has no end to cut: truncating it fails
    rc = run(["prove", str(golden_dir / "axiom1.ialc"), "--emit-proof", os.devnull])
    assert rc == 0 and "proof written" in capsys.readouterr().out
    rc = run(["countermodel", str(golden_dir / "lem.ialc"), "--max-worlds", "2",
              "--emit-model", os.devnull])
    assert rc == 1 and "model written" in capsys.readouterr().out
