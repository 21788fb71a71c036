"""Command line: prove, check, countermodel, eval, axioms, models.

Exit codes are stable: 0 proved/accepted/valid, 1 refuted/rejected/
counterexample found, 2 unknown (no proof within the budgets), 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import hilbert
from .modelgen import Signature, count_models, enumerate_models, signature_for
from .semantics import (
    ModelFileError, UnassignedNominalError, _json, extension, load_model,
    model_to_dict, satisfies, save_model, sequent_valid,
)
from .sequent import (
    DEFAULT_DEPTH, DEFAULT_VISITED, ProofFileError, check_proof, find_countermodel, parse_proof,
    prove, save_proof,
)
from .syntax import (
    _SPACE, ConceptF, ParseError, Subs, _code_lines, parse_formula, parse_problem, parse_sequent,
    render,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser does not depend on the input, so it is built once
    per process and shared by every ``run`` call; each call gets a fresh
    namespace."""
    parser = _Parser(prog="ialc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof of a problem's goal")
    p.add_argument("problem")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--visited", type=int, default=DEFAULT_VISITED)
    p.add_argument("--emit-proof", metavar="F", help="write the proof to F; if none is found, "
                   "a regular file at F is removed, so no earlier proof stays there")

    p = sub.add_parser("check", help="check a sequent proof tree or an axiomatic proof file")
    p.add_argument("prooffile")

    p = sub.add_parser("countermodel", help="search enumerated models for a "
                                            "counterexample to the goal sequent")
    p.add_argument("problem")
    p.add_argument("--max-worlds", type=int, required=True)
    p.add_argument("--emit-model", metavar="F")
    p.add_argument("--tbox-local", action="store_true")
    p.add_argument("--stats", action="store_true", help="print the models enumerated and "
                   "evaluated and the frames enumerated per world count as JSON on stderr")

    p = sub.add_parser("eval", help="evaluate a formula or sequent on a model")
    p.add_argument("--model", required=True, metavar="F")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--sequent")
    p.add_argument("--tbox-local", action="store_true")
    p.add_argument("--raw", action="store_true",
                   help="skip frame validation when loading the model")

    p = sub.add_parser("axioms", help="write and verify the five axiom derivation trees")
    p.add_argument("--out", default=".", metavar="DIR")

    p = sub.add_parser("models", help="enumerate interpretations over a generic signature")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--atoms", type=int, default=0)
    p.add_argument("--roles", type=int, default=0)
    p.add_argument("--nominals", type=int, default=0)
    p.add_argument("--count-only", action="store_true")
    parser.commands = sub.choices       # subcommand name -> its parser
    return parser


def _load_problem(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _cmd_prove(args) -> int:
    goal = _load_problem(args.problem).sequent()
    result = prove(goal, max_depth=args.depth, max_visited=args.visited)
    if not result.proved:
        stop = f"{result.budget} budget ran out" if result.budget else "search space exhausted"
        if any(isinstance(getattr(f, "concept", None), Subs) for f in goal.antecedent):
            stop += " under the local reading of the antecedent's subsumptions"
        print(f"unknown, {stop} (depth {args.depth}, visited {result.visited}): {render(goal)}")
        if args.emit_proof and os.path.isfile(args.emit_proof):
            os.remove(args.emit_proof)
        return EXIT_UNKNOWN
    print(f"proved (visited {result.visited}): {render(goal)}")
    if args.emit_proof:
        save_proof(result.tree, args.emit_proof)
        print(f"proof written to {args.emit_proof}")
    return EXIT_OK


def _cmd_check(args) -> int:
    with open(args.prooffile, "r", encoding="utf-8") as fh:
        text = fh.read()
    # a sequent proof tree is JSON
    if next((code.strip(_SPACE) for _, code in _code_lines(text)), "").startswith("{"):
        result = check_proof(parse_proof(text, args.prooffile))
    else:
        result = hilbert.check_hilbert_proof(hilbert.parse_hilbert_proof(text))
    print(result)
    return EXIT_OK if result.ok else EXIT_REFUTED


def _cmd_countermodel(args) -> int:
    goal = _load_problem(args.problem).sequent()
    sig = signature_for(goal, args.max_worlds)
    stats = {} if args.stats else None
    start = time.perf_counter()
    model = find_countermodel(goal, sig, tbox_global=not args.tbox_local, stats=stats)
    if stats is not None:
        stats["elapsed_s"] = round(time.perf_counter() - start, 6)
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    if model is None:
        print(f"no countermodel with up to {args.max_worlds} worlds: {render(goal)}")
        return EXIT_OK
    print(f"countermodel with {len(model.worlds)} worlds: {render(goal)}")
    if args.emit_model:
        save_model(model, args.emit_model)
        print(f"model written to {args.emit_model}")
    else:
        print(_json(model_to_dict(model)))
    return EXIT_REFUTED


def _cmd_eval(args) -> int:
    model, warnings = load_model(args.model, raw=args.raw)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.sequent is not None:
        valid = sequent_valid(model, parse_sequent(args.sequent),
                              tbox_global=not args.tbox_local)
        print("sequent valid on model" if valid else "sequent invalid on model")
        return EXIT_OK if valid else EXIT_REFUTED
    f = parse_formula(args.formula)
    if isinstance(f, ConceptF):
        ext = extension(model, f.concept)
        missing = [w for w in model.worlds if w not in ext]
        if not missing:
            print("valid at all worlds")
            return EXIT_OK
        print(f"fails at {len(missing)} of {len(model.worlds)} worlds: "
              f"{sorted(missing, key=repr)}")
        return EXIT_REFUTED
    valid = satisfies(model, f)
    print("satisfied" if valid else "not satisfied")
    return EXIT_OK if valid else EXIT_REFUTED


def _cmd_axioms(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    status = EXIT_OK
    for i, root in sorted(hilbert.AXIOM_ROOTS.items()):
        tree = prove(parse_sequent(root)).tree
        result = check_proof(tree)
        path = os.path.join(args.out, f"axiom{i}.prf")
        save_proof(tree, path)
        print(f"axiom{i}: {result} -> {path}")
        if not result.ok:
            status = EXIT_REFUTED
    return status


def _cmd_models(args) -> int:
    if min(args.atoms, args.roles, args.nominals) < 0:
        raise ValueError("--atoms, --roles and --nominals must be nonnegative")
    sig = Signature(
        atoms=tuple(f"A{i}" for i in range(1, args.atoms + 1)),
        roles=tuple(f"R{i}" for i in range(1, args.roles + 1)),
        nominals=tuple(f"x{i}" for i in range(1, args.nominals + 1)),
        max_worlds=args.worlds,
    )
    if args.count_only:
        print(count_models(sig))
        return EXIT_OK
    for model in enumerate_models(sig):
        print(json.dumps(model_to_dict(model)))
    return EXIT_OK


# the subcommand <name> runs _cmd_<name>
_COMMANDS = {name[5:]: f for name, f in globals().items() if name.startswith("_cmd_")}


def run(argv: Optional[list[str]] = None) -> int:
    """Run one op and return its exit code.  The parser of the subcommand
    that argv[0] names reads the rest of argv directly, not after the
    top-level parser has scanned all of it, with the same result; the
    top-level parser reads only an argv that names no subcommand (empty,
    ``-h``, an unknown word), for its help or its error."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args = sub.parse_args(argv[1:])
            args.command = argv[0]
        return _COMMANDS[args.command](args)
    except (_CliError, ParseError, ModelFileError, ProofFileError,
            UnassignedNominalError, hilbert.SchemaError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
