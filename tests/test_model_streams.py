"""Pinned model streams.

The determinism tests elsewhere only compare one run with another, so a
reordered enumeration or a shifted random draw would pass them.  These
digests fix the exact bytes of three streams: the ``models`` listing,
a run of seeded random models and two countermodel reports.
"""

import hashlib
import json

from ialc.cli import run
from ialc.modelgen import Signature, random_model
from ialc.semantics import model_to_dict


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(capsys, *argv) -> tuple[int, str]:
    rc = run(list(argv))
    return rc, capsys.readouterr().out


def test_models_listing_is_pinned(capsys):
    rc, out = stdout_of(capsys, "models", "--worlds", "2", "--atoms", "1",
                        "--roles", "1", "--nominals", "1")
    assert rc == 0 and len(out.splitlines()) == 272
    assert sha256(out) == "1967f6c866046662e4a238775974720373229e9b5199f118c03c5fb68fd705ce"


def test_random_models_are_pinned():
    sig = Signature(("A", "B"), ("R",), ("x",), 3)
    out = "".join(json.dumps(model_to_dict(random_model(sig, seed))) + "\n"
                  for seed in range(20))
    assert sha256(out) == "62a992c2b5c9f09e618de367831eede87020fc918ca8461485e33bca3bc69bc9"


def test_countermodel_reports_are_pinned(capsys, golden_dir):
    pinned = {
        "lem": "185bf892bb7fdac613a3315517f1eb56d68e2c76bd6c1a18f5e29d1aaf40deca",
        "dne": "7dd7a9902560bf1b9b08aea913f03a2f84f86340a8439fbdf873bf561a979b86",
    }
    for name, digest in pinned.items():
        rc, out = stdout_of(capsys, "countermodel", str(golden_dir / f"{name}.ialc"),
                            "--max-worlds", "3")
        assert rc == 1 and sha256(out) == digest, name
