"""Pinned model streams.

The determinism tests elsewhere only compare one run with another, so a
reordered enumeration or a shifted random draw would pass them.  These
digests fix the exact bytes of three streams: the ``models`` listing,
a run of seeded random models and two countermodel reports; and the
positions in the enumeration of the frames ``candidate`` keeps, which
the countermodel search evaluates.
"""

import hashlib
import json

from ialc.cli import run
from ialc.modelgen import Signature, candidate, enumerate_models, random_model
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
    assert sha256(out) == "716a3de83c007b668b5702ae4564ab84d8ed74cf889ad66f0aba56c1359e673e"


def test_countermodel_reports_are_pinned(capsys, golden_dir):
    pinned = {
        "lem": "185bf892bb7fdac613a3315517f1eb56d68e2c76bd6c1a18f5e29d1aaf40deca",
        "dne": "7dd7a9902560bf1b9b08aea913f03a2f84f86340a8439fbdf873bf561a979b86",
    }
    for name, digest in pinned.items():
        rc, out = stdout_of(capsys, "countermodel", str(golden_dir / f"{name}.ialc"),
                            "--max-worlds", "3")
        assert rc == 1 and sha256(out) == digest, name


def test_candidate_positions_are_pinned():
    # (atoms, roles, nominals) -> how many frames candidate keeps to 3
    # worlds, and the digest of the positions of their first models in the
    # stream; without atoms and nominals a frame is a model, and the pins
    # are those of the models the earlier per-model filter kept
    pinned = {
        (0, 0, 0): (8, "5f60893919eb6b92"), (0, 0, 1): (13, "978e81944bac48d0"),
        (0, 1, 0): (777, "3069ccaf8280d157"), (0, 1, 1): (855, "df8d663b6b75f606"),
        (1, 0, 0): (8, "73a80424b3d3b06b"), (1, 0, 1): (13, "7b6befa4ca34bf85"),
        (1, 1, 0): (777, "44e8aa7217acfeaa"), (1, 1, 1): (855, "b1992b95aa3dc7c8"),
        (2, 0, 0): (8, "cac32dc6d9ead67e"), (2, 0, 1): (13, "bcbb1935ac1794b3"),
        (2, 1, 0): (777, "a6de3c9a13814610"), (2, 1, 1): (855, "07b3648cc02fcd1f"),
    }
    for (a, r, x), (count, digest) in pinned.items():
        sig = Signature(("A", "B")[:a], ("R",)[:r], ("x",)[:x], 3)
        kernel, positions = None, []
        for i, I in enumerate(enumerate_models(sig)):
            if I._k is not kernel:
                kernel = I._k
                if candidate(kernel, sig):
                    positions.append(i)
        assert len(positions) == count, (a, r, x)
        assert sha256("".join(f"{p}," for p in positions))[:16] == digest, (a, r, x)
