#!/usr/bin/env python3
"""Prove a corpus of axiom-schema instances, then sweep every proved
sequent over exhaustively enumerated small models plus a seeded random
family, reporting any validity violation.

    python scripts/soundness_sweep.py --per-axiom 6 --samples 1000
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import schema_instance_corpus
from ialc.modelgen import Signature, enumerate_models, random_model
from ialc.semantics import sequent_valid
from ialc.sequent import check_proof, prove
from ialc.syntax import render


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-axiom", type=int, default=6)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--depth", type=int, default=16)
    args = ap.parse_args()

    corpus = schema_instance_corpus(per_axiom=args.per_axiom, seed=args.seed)
    print(f"corpus: {len(corpus)} sequents")

    t0 = time.monotonic()
    proved = []
    for s in corpus:
        result = prove(s, max_depth=args.depth)
        if not result.proved:
            print(f"  UNPROVED  {render(s)}")
            continue
        assert check_proof(result.tree).ok
        proved.append(s)
    print(f"proved {len(proved)}/{len(corpus)} in {time.monotonic()-t0:.2f}s")

    sig2 = Signature(atoms=("A", "B"), roles=("R",), nominals=("x", "y"),
                     max_worlds=2)
    family = list(enumerate_models(sig2))
    sig3 = Signature(atoms=("A", "B"), roles=("R",), nominals=("x", "y"),
                     max_worlds=3)
    family += [random_model(sig3, seed) for seed in range(args.samples)]
    print(f"model family: {len(family)} interpretations")

    t0 = time.monotonic()
    violations = 0
    for s in proved:
        for I in family:
            if not sequent_valid(I, s):
                violations += 1
                print(f"  VIOLATION  {render(s)}")
                break
    dt = time.monotonic() - t0
    print(f"soundness sweep: {violations} violations, "
          f"{len(proved) * len(family)} checks in {dt:.1f}s")
    return 0 if violations == 0 and len(proved) == len(corpus) else 1


if __name__ == "__main__":
    sys.exit(main())
