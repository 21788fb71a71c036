"""Seeded input generator for the ialc benchmark.

Everything here is the benchmark's own code: it builds problem texts,
Hilbert proof files and model documents as plain strings and dicts, and
imports nothing from ``ialc``.  A change to the program therefore cannot
change the traffic.  ``make_pool.py`` runs these builders once with a
fixed pool seed and commits the result, with reference answers, to
``pool/``; ``inputs.py`` then draws each run's inputs from that pool with
the run's ``--seed``.

Input families and why each was chosen:

- golden problems (the five modal axiom roots, excluded middle, double
  negation elimination): the paper's own examples.  The valid roots make
  ``countermodel`` sweep every model up to its bound, which is the heavy
  tail a user waits for; ``lem``/``dne`` need two worlds.
- random propositional and modal goals over at most {A, B, R, x}: most
  are refuted at one or two worlds in milliseconds, which is what the
  common request looks like, and the valid ones sweep small signatures.
- constructive non-theorem templates (excluded middle, double negation,
  linearity, Peirce) over random propositional bodies: refuted only at
  two or three worlds, so enumeration has to climb world counts.
- intuitionistic tautology templates: valid goals whose sweep cost is
  fixed by their two-atom signature.
- axiom-schema instances (the five roots with random alpha/beta): valid
  by construction, proved by backward search with a heavy-tailed
  visited count.
- Hilbert proofs: chained identity derivations (a1, a2, modus ponens,
  necessitation) and copies with one line mutated, which the checker
  must reject.
- small random models (3-4 worlds): many cheap loads, each queried by a
  batch of sequent/formula/concept questions.
- large chain models (20, 30, 40 worlds): load and frame validation grow
  with the model, so few large models stress a different cost than many
  small ones.
- error paths: a malformed problem, a frame-violating model, an atom
  extension that is not closed upward, and a goal nested 3,000 deep.
"""

from __future__ import annotations

import random

ATOMS = ("A", "B")
ROLE = "R"

# ---------------------------------------------------------------------------
# Concepts, rendered with every binary node parenthesized
# ---------------------------------------------------------------------------


def concept(rng: random.Random, atoms, roles, depth: int) -> str:
    """Random concept text of at most the given connective depth."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.85:
            return rng.choice(atoms)
        return "top" if roll < 0.93 else "bot"
    kinds = ["not", "and", "or", "subs"] + (["some", "all"] if roles else [])
    kind = rng.choice(kinds)
    if kind == "not":
        return f"not ({concept(rng, atoms, roles, depth - 1)})"
    if kind in ("some", "all"):
        return f"{kind} {rng.choice(roles)}.({concept(rng, atoms, roles, depth - 1)})"
    op = {"and": "&", "or": "|", "subs": "->"}[kind]
    left = concept(rng, atoms, roles, depth - 1)
    right = concept(rng, atoms, roles, depth - 1)
    return f"({left} {op} {right})"


def contingent(rng: random.Random, depth: int = 2) -> str:
    """Propositional body that mentions an atom (no top/bot leaves)."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    op = rng.choice(["&", "|", "->"])
    return f"({contingent(rng, depth - 1)} {op} {contingent(rng, depth - 1)})"


def problem(goal: str, assume=(), theory=()) -> str:
    lines = []
    if theory:
        lines += ["theory:"] + [f"  {t}" for t in theory]
    if assume:
        lines += ["assume:"] + [f"  {a}" for a in assume]
    lines += ["goal:", f"  {goal}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Problem families
# ---------------------------------------------------------------------------

GOLDEN = {
    "axiom1": problem("some R.A -> some R.B", assume=["all R.(A -> B)"]),
    "axiom2": problem("all R.A -> all R.B", assume=["all R.(A -> B)"]),
    "axiom3": problem("x : (some R.bot -> bot)"),
    "axiom4": problem("x : (some R.A | some R.B)", assume=["x : some R.(A | B)"]),
    "axiom5": problem("x : ((some R.A -> all R.B) -> all R.(A -> B))"),
    "lem": problem("A | not A"),
    "dne": problem("(not not A) -> A"),
}


def random_goal(rng: random.Random, family: str) -> str:
    if family == "prop":
        return problem(concept(rng, ATOMS, (), 3))
    if family == "modal":
        return problem(concept(rng, ATOMS, (ROLE,), 3))
    if family == "hybrid":
        return problem(f"x : {concept(rng, ATOMS, (ROLE,), 2)}",
                       assume=[f"x : {concept(rng, ATOMS, (ROLE,), 2)}"])
    if family == "theory":
        lhs, rhs = concept(rng, ATOMS, (), 1), concept(rng, ATOMS, (), 1)
        return problem(concept(rng, ATOMS, (), 2), theory=[f"{lhs} -> {rhs}"])
    raise ValueError(family)


# linearity is listed twice: it is the family refuted only at three worlds
NON_THEOREMS = (
    "{c} | not {c}",
    "(not not {c}) -> {c}",
    "({c} -> {d}) | ({d} -> {c})",
    "({c} -> {d}) | ({d} -> {c})",
    "(({c} -> {d}) -> {c}) -> {c}",
)

TAUTOLOGIES = (
    "{c} -> ({d} -> {c})",
    "({c} & {d}) -> ({d} | {c})",
    "({c} -> {d}) -> (({d} -> {c}) -> ({c} -> {c}))",
    "not {c} -> ({c} -> {d})",
    "({c} -> {d}) -> (not {d} -> not {c})",
)


def template_goal(rng: random.Random, templates) -> str:
    c, d = contingent(rng), contingent(rng)
    return problem(rng.choice(templates).format(c=c, d=d))


def axiom_instance(rng: random.Random, i: int) -> str:
    """Root problem of the i-th modal axiom with random alpha/beta."""
    a = concept(rng, ATOMS, (ROLE,), 2)
    b = concept(rng, ATOMS, (ROLE,), 2)
    if i == 1:
        return problem(f"some R.({a}) -> some R.({b})", assume=[f"all R.({a} -> {b})"])
    if i == 2:
        return problem(f"all R.({a}) -> all R.({b})", assume=[f"all R.({a} -> {b})"])
    if i == 3:
        return problem(f"x : (some R.({a} & bot) -> bot)")
    if i == 4:
        return problem(f"x : (some R.({a}) | some R.({b}))",
                       assume=[f"x : some R.({a} | {b})"])
    if i == 5:
        return problem(f"x : ((some R.({a}) -> all R.({b})) -> all R.({a} -> {b}))")
    raise ValueError(i)


MALFORMED = "goal:\n  (A & -> B\n"


def deep_goal(depth: int = 3000) -> str:
    return problem("not " * depth + "A")


# ---------------------------------------------------------------------------
# Hilbert proofs
# ---------------------------------------------------------------------------


def _identity_lines(c: str, role: str, base: int) -> list[str]:
    """Derivation of all role.(c -> c); line numbers start after base."""
    cc = f"({c} -> {c})"
    n = base
    return [
        f"{c} -> {cc} ; ipl a1 [C := {c}, D := {c}]",
        f"{c} -> ({cc} -> {c}) ; ipl a1 [C := {c}, D := {cc}]",
        f"({c} -> ({cc} -> {c})) -> (({c} -> {cc}) -> {cc}) ; "
        f"ipl a2 [C := {c}, D := {cc}, E := {c}]",
        f"({c} -> {cc}) -> {cc} ; mp {n + 2} {n + 3}",
        f"{cc} ; mp {n + 1} {n + 4}",
        f"all {role}.{cc} ; nec {n + 5} {role}",
    ]


def hilbert_proof(rng: random.Random, blocks: int) -> list[str]:
    lines: list[str] = []
    for _ in range(blocks):
        c = f"({concept(rng, ATOMS, (ROLE,), 2)})"
        lines += _identity_lines(c, ROLE, len(lines))
    return lines


def mutate_proof(rng: random.Random, lines: list[str]) -> list[str]:
    """Copy of a proof with one line changed so that it no longer checks."""
    out = list(lines)
    i = rng.randrange(len(out))
    concept_text, just = out[i].split(" ; ", 1)
    kind = rng.choice(["schema", "ref", "concept"])
    if just.startswith("ipl") and kind == "schema":
        just = just.replace("ipl a1", "ipl a3", 1).replace("ipl a2", "ipl a8", 1)
    elif just.startswith("mp") and kind != "concept":
        _, a, b = just.split()
        just = f"mp {b} {a}"
    elif just.startswith("nec") and kind != "concept":
        just = just.rsplit(" ", 1)[0] + " S"
    else:
        concept_text = f"({concept_text}) & A"
    out[i] = f"{concept_text} ; {just}"
    return out


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def closure(pairs, worlds) -> set:
    """Reflexive-transitive closure (Warshall)."""
    rel = {(w, w) for w in worlds} | set(pairs)
    for k in worlds:
        for i in worlds:
            if (i, k) in rel:
                rel |= {(i, j) for j in worlds if (k, j) in rel}
    return rel


def frame_ok(rel, leq, worlds) -> bool:
    """F1 and F2 for one role relation against a preorder."""
    for (w, w2) in leq:
        for (a, v) in rel:
            if a == w and not any((w2, v2) in rel and (v, v2) in leq for v2 in worlds):
                return False
    for (v, v2) in leq:
        for (w, b) in rel:
            if b == v and not any((w2, v2) in rel and (w, w2) in leq for w2 in worlds):
                return False
    return True


def small_model(rng: random.Random, n: int) -> dict:
    """Frame-valid random model over n worlds (rejection-sampled roles)."""
    worlds = list(range(n))
    covers = [(i, j) for i in worlds for j in worlds if i < j and rng.random() < 0.35]
    leq = closure(covers, worlds)
    while True:
        rel = {(i, j) for i in worlds for j in worlds if rng.random() < 0.25}
        if frame_ok(rel, leq, worlds):
            break
    atoms = {}
    for a in ATOMS:
        seed = {w for w in worlds if rng.random() < 0.4}
        atoms[a] = sorted({v for (w, v) in leq if w in seed})
    return {
        "worlds": worlds,
        "leq": sorted([list(p) for p in covers]),
        "roles": {ROLE: sorted([list(p) for p in rel])},
        "atoms": atoms,
        "nominals": {"x": rng.choice(worlds), "y": rng.choice(worlds)},
    }


def chain_model(rng: random.Random, n: int) -> dict:
    """Chain 0 < 1 < ... < n-1 given by its covers; the role is an
    up-set of the product order, which satisfies F1/F2 on any preorder.
    Its shape and nominals are fixed by n, so load and query cost do not
    depend on the seed; only the atom extensions do."""
    worlds = list(range(n))
    rel = [[w, v] for w in worlds for v in worlds if w + v >= n - 1]
    atoms = {a: list(range(rng.randrange(n), n)) for a in ATOMS}
    return {
        "worlds": worlds,
        "leq": [[i, i + 1] for i in range(n - 1)],
        "roles": {ROLE: rel},
        "atoms": atoms,
        "nominals": {"x": 0, "y": n // 2},
    }


def frame_violating_model() -> dict:
    # 0 <= 1 and 0 R 0, but 1 has no R-successor above 0 (F1 fails)
    return {"worlds": [0, 1], "leq": [[0, 1]], "roles": {ROLE: [[0, 0]]},
            "atoms": {}, "nominals": {"x": 0}}


def unclosed_atom_model() -> dict:
    # A holds at 0 but not at its refinement 1; the loader closes it and warns
    return {"worlds": [0, 1, 2], "leq": [[0, 1], [1, 2]], "roles": {ROLE: []},
            "atoms": {"A": [0], "B": [2]}, "nominals": {"x": 0, "y": 1}}


CHAIN_QUERIES = (
    ("sequent", "x : all R.{p} |- x : all R.({p} | {q})"),
    ("sequent", "x : some R.({p} & {q}) |- x : some R.{p}"),
    ("sequent", "{p} -> {q} |- all R.({p} -> {q})"),
    ("sequent", "x : {p} ; R(x,y) |- y : some R.{q}"),
    ("sequent", "x : not {p} |- x : ({p} -> all R.{q})"),
    ("satisfies", "x : all R.(some R.{p} -> {q})"),
    ("satisfies", "y : ({p} | not {p})"),
    ("satisfies", "R(x,y)"),
    ("extension", "all R.({p} -> some R.{q})"),
    ("extension", "not not {p} -> {p}"),
    ("extension", "some R.all R.{q}"),
    ("extension", "({p} -> {q}) | ({q} -> {p})"),
)


def chain_queries(rng: random.Random) -> list[list[str]]:
    """Fixed query shapes with the atoms in a seeded order, so the query
    cost on a large model does not depend on the seed."""
    p, q = rng.sample(ATOMS, 2)
    return [[kind, text.format(p=p, q=q)] for kind, text in CHAIN_QUERIES]


def queries(rng: random.Random, count: int) -> list[list[str]]:
    """Mixed batch of [kind, text] queries on one model."""
    out = []
    for _ in range(count):
        kind = rng.choice(["sequent", "sequent", "satisfies", "extension"])
        c = concept(rng, ATOMS, (ROLE,), 3)
        d = concept(rng, ATOMS, (ROLE,), 3)
        if kind == "sequent":
            text = rng.choice([f"{c} |- {d}", f"x : {c} |- x : {d}",
                               f"x : {c} ; R(x,y) |- y : {d}", f"{c} -> {d} |- {d}"])
        elif kind == "satisfies":
            text = rng.choice([f"x : {c}", f"y : {c}", "R(x,y)"])
        else:
            text = c
        out.append([kind, text])
    return out
