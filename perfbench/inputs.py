"""Per-run inputs: a seeded, stratified draw from the committed pool.

Each pass of a workload sends its fixed inputs (the golden roots and the
error paths) and ``PASS_DRAWS[workload]`` inputs drawn from its pool.
The draws are shared out over the answer classes (which come from the
reference answers, and so are exact) in proportion to each class's share
of the pool, so the mix of cheap and expensive requests follows from the
generator (``gen.py`` says why each family is there), not from per-class
constants.  Within a class the picks are spread over the cost range: the
class is sorted by the cost recorded when the pool was built, cut into as
many strata as there are picks, and one input is drawn from each stratum.
A class whose inputs take more than ``HEAVY_S`` on average gets the
middle input of each stratum in every run, so that no seed decides how
heavy a run is.  Runs with different seeds therefore send different
inputs at a steady total cost, and the same seed always gives the same
inputs in the same order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

POOL = Path(__file__).resolve().parent / "pool"
SECTIONS = ("countermodel", "prove", "hilbert", "eval")
WORKLOADS = ("countermodel", "prove_check", "eval")

# Draws per pass.  Each is large enough that at least ten ops of a pass lie
# beyond its 90th percentile, and small enough for a pass to take a few
# seconds, so that a run holds several passes (see run.py).
PASS_DRAWS = {"countermodel": 180, "prove_check": 190, "eval": 126}
HEAVY_S = 0.1

# R<k>: first countermodel at k worlds; V<b>: none up to bound b.  Random
# goals whose three-world sweep has more than V3_SMALL models (4 of 720 in
# the pool, 0.7-9 s each) are left out, so that a pass stays a few seconds
# long; the golden axiom3 root (13,508 models) is the big sweep of a pass.
V3_SMALL = 5_000


@dataclass
class Op:
    """One user request and the answer the reference expects."""
    kind: str                 # countermodel | prove | hilbert | eval
    ident: str
    text: str = ""            # problem / proof file contents
    max_worlds: int = 0
    ref: dict = field(default_factory=dict)
    model: dict | None = None
    queries: list = field(default_factory=list)
    path: str = ""            # input file, written before the run
    proof_path: str = ""      # where prove_check emits its proof


def _shares(entries: list, key, total: int) -> dict:
    """total split over the classes of entries in proportion to their
    sizes (largest remainder; ties go to the class named first)."""
    sizes: dict = {}
    for e in entries:
        sizes[key(e)] = sizes.get(key(e), 0) + 1
    exact = {c: total * n / len(entries) for c, n in sorted(sizes.items())}
    counts = {c: int(x) for c, x in exact.items()}
    by_rest = sorted(exact, key=lambda c: -(exact[c] - counts[c]))
    for c in by_rest[:total - sum(counts.values())]:
        counts[c] += 1
    return counts


def _spread(rng: random.Random, entries: list, k: int) -> list:
    """k entries, one from each of k strata of the cost-sorted list."""
    entries = sorted(entries, key=lambda e: (e["cost_s"], e["id"]))
    n = len(entries)
    heavy = sum(e["cost_s"] for e in entries) / n > HEAVY_S
    strata = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    return [entries[(lo + hi) // 2 if heavy else rng.randrange(lo, hi)]
            for lo, hi in strata]


def _draw(rng: random.Random, entries: list, key, total: int) -> list:
    out = []
    for cls, count in _shares(entries, key, total).items():
        if count:
            out += _spread(rng, [e for e in entries if key(e) == cls], count)
    return out


def _prove_class(e: dict) -> str:
    if "visited" not in e["ref"]:
        return f"hilbert-{e['family']}"
    v = e["ref"]["visited"]
    return f"{e['family']}-" + ("tiny" if v < 100 else "mid" if v < 1000 else "tail")


def countermodel_ops(pool: dict, rng: random.Random) -> list[Op]:
    golden = [e for e in pool["countermodel"] if e["family"] == "golden"]
    # axiom1/axiom2 sweep 116,322 models (7-9 s) at three worlds: two worlds here
    ops = [Op("countermodel", e["id"], e["text"],
              2 if e["id"] in ("axiom1", "axiom2") else e["max_worlds"], e["ref"])
           for e in golden]
    randoms = [e for e in pool["countermodel"] if e["family"] != "golden"
               and not (e["class"] == "V3" and e["ref"]["models"] > V3_SMALL)]
    for e in _draw(rng, randoms, lambda e: e["class"], PASS_DRAWS["countermodel"]):
        ops.append(Op("countermodel", e["id"], e["text"], e["max_worlds"], e["ref"]))
    ops.append(Op("countermodel", "malformed", gen.MALFORMED, 3, {"error": True}))
    return ops


def prove_check_ops(pool: dict, rng: random.Random) -> list[Op]:
    golden = [e for e in pool["prove"] if e["family"] == "golden"]
    ops = [Op("prove", e["id"], e["text"], ref=e["ref"]) for e in golden]
    drawable = [e for e in pool["prove"] if e["family"] != "golden"] + pool["hilbert"]
    for e in _draw(rng, drawable, _prove_class, PASS_DRAWS["prove_check"]):
        kind = "prove" if "visited" in e["ref"] else "hilbert"
        ops.append(Op(kind, e["id"], e["text"], ref=e["ref"]))
    ops.append(Op("prove", "malformed", gen.MALFORMED, ref={"error": True}))
    # a known defect: the recursive-descent parser overflows the stack and
    # the RecursionError escapes the CLI; it is counted as a failed op
    ops.append(Op("prove", "deep-nesting", gen.deep_goal(),
                  ref={"error": True, "known_defect": True}))
    return ops


def eval_ops(pool: dict, rng: random.Random) -> list[Op]:
    entries = [e for e in pool["eval"] if e["family"] != "error"]
    chosen = _draw(rng, entries, lambda e: f"{e['family']}{e['worlds']}",
                   PASS_DRAWS["eval"])
    chosen += [e for e in pool["eval"] if e["family"] == "error"]
    return [Op("eval", e["id"], ref=e["ref"], model=e["model"], queries=e["queries"])
            for e in chosen]


def load_pool(workload: str) -> dict:
    """The pool sections a workload draws from."""
    names = {"countermodel": ("countermodel",), "prove_check": ("prove", "hilbert"),
             "eval": ("eval",)}[workload]
    pool = {}
    for name in names:
        with open(POOL / f"{name}.json", "r", encoding="utf-8") as fh:
            pool[name] = json.load(fh)
    return pool


def build(pool: dict, workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = {"countermodel": countermodel_ops, "prove_check": prove_check_ops,
           "eval": eval_ops}[workload](pool, rng)
    rng.shuffle(ops)
    return ops
