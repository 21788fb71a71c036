#!/usr/bin/env python3
"""Which classical tautologies survive constructively?

For each goal the script runs the cut-free prover and the finite
countermodel search side by side, printing proved / refuted / open.

    python scripts/classical_vs_constructive.py --max-worlds 3

CI compares that run's output with classical_vs_constructive.expected.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ialc.modelgen import signature_for
from ialc.sequent import find_countermodel, prove
from ialc.semantics import model_to_dict
from ialc.syntax import parse_sequent

GOALS = [
    "|- A -> A",
    "|- A -> (B -> A)",
    "|- A & B -> A",
    "|- A -> A | B",
    "|- bot -> A",
    "|- A | not A",                       # excluded middle
    "|- (not not A) -> A",                # double negation elimination
    "|- ((A -> B) -> A) -> A",            # Peirce
    "|- (A -> B) | (B -> A)",             # linearity
    "|- not (A & not A)",
    "all R.(A -> B) |- some R.A -> some R.B",
    "x : some R.(A | B) |- x : (some R.A | some R.B)",
    "|- x : ((some R.A -> all R.B) -> all R.(A -> B))",
    "x : all R.(A & B) |- x : all R.A",
    "|- some R.top",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-worlds", type=int, default=3)
    ap.add_argument("--depth", type=int, default=24)
    ap.add_argument("--show-models", action="store_true")
    args = ap.parse_args()

    for text in GOALS:
        s = parse_sequent(text)
        result = prove(s, max_depth=args.depth)
        if result.proved:
            print(f"proved   {text}")
            continue
        model = find_countermodel(s, signature_for(s, args.max_worlds))
        if model is not None:
            print(f"refuted  {text}   ({len(model.worlds)} worlds)")
            if args.show_models:
                print(f"         {model_to_dict(model)}")
        else:
            print(f"open     {text}   (depth {args.depth}, "
                  f"<= {args.max_worlds} worlds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
