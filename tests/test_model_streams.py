"""Pinned model streams.

The determinism tests elsewhere only compare one run with another, so a
reordered enumeration or a shifted random draw would pass them.  These
digests fix the exact bytes of three streams: the ``models`` listing,
a run of seeded random models and two countermodel reports; and the
positions in the enumeration of the models ``candidates`` keeps.
"""

import hashlib
import json

from ialc.cli import run
from ialc.modelgen import Signature, candidates, enumerate_models, random_model
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


def test_candidate_positions_are_pinned():
    # (atoms, roles, nominals) -> how many models candidates keeps to 3 worlds,
    # and the digest of their positions in the stream, recorded before the
    # models of one frame came to share a kernel
    pinned = {
        (0, 0, 0): (8, "5f60893919eb6b92"), (0, 0, 1): (20, "bcc83503f0a045b6"),
        (0, 1, 0): (777, "3069ccaf8280d157"), (0, 1, 1): (2307, "93a83d4c24c1b539"),
        (1, 0, 0): (23, "b578a5df5d7a9738"), (1, 0, 1): (74, "54127f50ede0823b"),
        (1, 1, 0): (3497, "de26324e8497e49b"), (1, 1, 1): (10858, "d7c1473821258db2"),
        (2, 0, 0): (72, "82ce0579cab5574c"), (2, 0, 1): (301, "b5bd0d36f2878533"),
        (2, 1, 0): (17774, "d718cd7506d23201"), (2, 1, 1): (57219, "f20a3ebe5c6e5f84"),
    }
    for (a, r, x), (count, digest) in pinned.items():
        sig = Signature(("A", "B")[:a], ("R",)[:r], ("x",)[:x], 3)
        pulled = [-1]

        def stream():
            for pulled[0], I in enumerate(enumerate_models(sig)):
                yield I

        positions = [pulled[0] for _ in candidates(stream(), sig)]
        assert len(positions) == count, (a, r, x)
        assert sha256("".join(f"{p}," for p in positions))[:16] == digest, (a, r, x)
