#!/usr/bin/env python3
"""Build ``pool/*.json``: the benchmark's input pool with reference answers.

    python3 perfbench/make_pool.py            # takes a few minutes

Inputs come from ``gen.py`` with a fixed pool seed.  Reference answers
are computed once with ``ialc`` from ``src/`` and cross-checked before
they are written:

- every countermodel passes ``validate_interpretation`` and falsifies
  its goal, and its world count is the first at which enumeration (in
  ascending world count) finds one, so it is the minimal count;
- a goal the prover proves must have no countermodel, and its proof
  must pass ``check_proof``;
- a schema instance must have no countermodel at two worlds;
- intact Hilbert proofs are accepted, mutated ones rejected;
- each model loads (or is rejected) as its family says.

Each run then draws its inputs from the pool with its own seed
(``inputs.py``), so the committed answers cover every input it sends.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

ialc = run.import_ialc(HERE.parent / "src")
POOL_SEED = 14020225
SWEEP3_LIMIT = 25_000      # largest 3-world signature a valid goal may sweep
PROVE_VISITED = ialc.cli.DEFAULT_VISITED

_model_counts: dict = {}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(f"reference cross-check failed: {message}")


def model_count(sig) -> int:
    key = (len(sig.atoms), len(sig.roles), len(sig.nominals), sig.max_worlds)
    if key not in _model_counts:
        _model_counts[key] = sum(1 for _ in ialc.modelgen.enumerate_models(sig))
    return _model_counts[key]


def first_countermodel(seq, max_worlds: int):
    """(world count or None, models examined) in enumeration order."""
    examined = 0
    for model in ialc.modelgen.enumerate_models(ialc.modelgen.signature_for(seq, max_worlds)):
        examined += 1
        if not ialc.semantics.sequent_valid(model, seq):
            check(ialc.semantics.validate_interpretation(model).ok, "invalid countermodel")
            return len(model.worlds), examined
    return None, examined


def countermodel_entry(ident: str, family: str, text: str, bound: int | None = None):
    seq = ialc.syntax.parse_problem(text).sequent()
    worlds, examined = first_countermodel(seq, 2)
    if bound is None:
        bound = 3
        if worlds is None and model_count(ialc.modelgen.signature_for(seq, 3)) > SWEEP3_LIMIT:
            bound = 2
    if bound == 3 and worlds is None:
        worlds, examined = first_countermodel(seq, 3)
    cls = f"R{worlds}" if worlds else f"V{bound}"
    return {"id": ident, "family": family, "text": text, "max_worlds": bound,
            "class": cls, "ref": {"worlds": worlds, "models": examined}}


def build_countermodel(rng: random.Random) -> list[dict]:
    out = []
    bounds = {"axiom4": 2, "axiom5": 2}
    for name, text in gen.GOLDEN.items():
        out.append(countermodel_entry(name, "golden", text, bounds.get(name, 3)))
    fams = ["prop", "modal", "hybrid", "theory"]
    for i in range(480):
        fam = fams[i % len(fams)]
        out.append(countermodel_entry(f"cm-{fam}-{i}", fam, gen.random_goal(rng, fam)))
    for i in range(160):
        out.append(countermodel_entry(f"cm-nonthm-{i}", "nonthm",
                                      gen.template_goal(rng, gen.NON_THEOREMS)))
    for i in range(80):
        out.append(countermodel_entry(f"cm-taut-{i}", "taut",
                                      gen.template_goal(rng, gen.TAUTOLOGIES)))
    return out


def prove_entry(ident: str, family: str, text: str, refuted: bool,
                cap: int = PROVE_VISITED):
    """Reference for one goal, or None when search needs more than cap
    visited sequents (the search is deterministic, so a search that
    ends within cap ends the same way under the CLI's larger default)."""
    seq = ialc.syntax.parse_problem(text).sequent()
    result = ialc.sequent.prove(seq, max_depth=run.PROVE_DEPTH, max_visited=cap)
    if result.visited > cap and cap < PROVE_VISITED:
        return None
    nodes = 0
    if result.proved:
        check(ialc.sequent.check_proof(result.tree).ok, f"{ident}: proof rejected")
        check(not refuted, f"{ident}: proved a goal that has a countermodel")
        nodes = run.tree_nodes(result.tree)
    return {"id": ident, "family": family, "text": text,
            "ref": {"refuted": refuted, "proved": result.proved,
                    "visited": result.visited, "proof_nodes": nodes}}


def build_prove(rng: random.Random, cm_pool: list[dict]) -> list[dict]:
    out = []
    for i in range(1, 6):
        out.append(prove_entry(f"axiom{i}", "golden", gen.GOLDEN[f"axiom{i}"], False))
    for i in range(600):
        k = i % 5 + 1
        text = gen.axiom_instance(rng, k)
        seq = ialc.syntax.parse_problem(text).sequent()
        check(first_countermodel(seq, 2)[0] is None, f"schema instance refuted: {text}")
        entry = prove_entry(f"schema{k}-{i}", "schema", text, False)
        # a search that uses up the visited budget takes about 9 s for an
        # unknown; such instances would dominate every pass, so they are left out
        if entry["ref"]["visited"] <= PROVE_VISITED:
            out.append(entry)
    refuted = [e for e in cm_pool if e["ref"]["worlds"] is not None]
    for e in rng.sample(refuted, 160):
        entry = prove_entry(f"refuted-{e['id']}", "refuted", e["text"], True, cap=20_000)
        if entry is not None:
            out.append(entry)
    return out


def build_hilbert(rng: random.Random) -> list[dict]:
    out = []
    for i in range(40):
        lines = gen.hilbert_proof(rng, rng.randint(1, 3))
        for kind, body in (("valid", lines), ("mutated", gen.mutate_proof(rng, lines))):
            text = "\n".join(body) + "\n"
            ok = ialc.hilbert.check_hilbert_proof(ialc.hilbert.parse_hilbert_proof(text)).ok
            if ok != (kind == "valid"):
                check(kind == "mutated", f"intact proof rejected: {text}")
                continue            # the mutation happened to still check
            out.append({"id": f"hpf-{kind}-{i}", "family": kind, "text": text,
                        "ref": {"accepted": ok, "lines": len(body)}})
    return out


def eval_entry(ident: str, family: str, doc: dict, qs: list) -> dict:
    try:
        model, warnings = ialc.semantics.model_from_dict(json.loads(json.dumps(doc)))
    except ialc.semantics.ModelFileError:
        return {"id": ident, "family": family, "worlds": len(doc["worlds"]),
                "model": doc, "queries": [], "ref": {"error": True, "warnings": 0,
                                                     "answers": []}}
    return {"id": ident, "family": family, "worlds": len(doc["worlds"]),
            "model": doc, "queries": qs,
            "ref": {"error": False, "warnings": len(warnings),
                    "answers": [run.answer(ialc, model, k, t) for k, t in qs]}}


def build_eval(rng: random.Random) -> list[dict]:
    out = []
    for i in range(240):
        n = 3 + i % 2
        out.append(eval_entry(f"small{n}-{i}", "small", gen.small_model(rng, n),
                              gen.queries(rng, 8)))
    for n in (20, 30, 40):
        for i in range(3):
            out.append(eval_entry(f"chain{n}-{i}", "chain", gen.chain_model(rng, n),
                                  gen.chain_queries(rng)))
    out.append(eval_entry("frame-violating", "error", gen.frame_violating_model(), []))
    out.append(eval_entry("unclosed-atom", "error", gen.unclosed_atom_model(),
                          gen.queries(rng, 8)))
    check(out[-2]["ref"]["error"] and out[-1]["ref"]["warnings"] > 0, "error-path models")
    return out


def measure_costs(pool: dict) -> None:
    """Record each input's op time (best of two) as ``cost_s``.  It is
    used only to stratify each run's draw, so that every run sends a
    similar spread of cheap and expensive inputs; it is fixed once
    written, so later program changes do not move the traffic."""
    work = HERE.parent / ".bench_work" / "pool"
    work.mkdir(parents=True, exist_ok=True)
    for kind in ("countermodel", "prove", "hilbert", "eval"):
        for e in pool[kind]:
            op = inputs.Op(kind, e["id"], e.get("text", ""), e.get("max_worlds", 0),
                           e["ref"], e.get("model"), e.get("queries", []))
            run.materialize(op, work, "cost")
            e["cost_s"] = round(min(run.untraced(ialc, op)[1] for _ in range(2)), 6)


def main() -> int:
    rng = random.Random(POOL_SEED)
    t0 = time.perf_counter()
    pool = {}
    pool["countermodel"] = build_countermodel(rng)
    print(f"countermodel: {len(pool['countermodel'])} goals "
          f"({time.perf_counter() - t0:.0f}s)", flush=True)
    pool["prove"] = build_prove(rng, pool["countermodel"])
    print(f"prove: {len(pool['prove'])} goals ({time.perf_counter() - t0:.0f}s)", flush=True)
    pool["hilbert"] = build_hilbert(rng)
    pool["eval"] = build_eval(rng)
    print(f"eval: {len(pool['eval'])} models ({time.perf_counter() - t0:.0f}s)", flush=True)
    measure_costs(pool)
    print(f"costs measured ({time.perf_counter() - t0:.0f}s)", flush=True)
    (HERE / "pool").mkdir(exist_ok=True)
    for section in inputs.SECTIONS:
        with open(HERE / "pool" / f"{section}.json", "w", encoding="utf-8") as fh:
            json.dump(pool[section], fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
