#!/usr/bin/env python3
"""ialc benchmark: one workload, one seed, single-threaded, one process at a time.

    python3 perfbench/run.py --workload countermodel --seed 1 --seconds 15 --trace 0

Run from the repository root; ``ialc`` is imported from ``./src``.
Workloads (``inputs.py`` draws their inputs, ``gen.py`` says why):

- ``countermodel``: ``ialc countermodel P --max-worlds 3`` through
  ``ialc.cli.run`` (two worlds for the large-signature sweeps).
- ``prove_check``: ``ialc prove P --depth 16 --emit-proof F`` and then
  ``ialc check F``; Hilbert files go to ``ialc check`` alone.
- ``eval``: ``semantics.load_model`` of one model file and a batch of
  ``sequent_valid``/``satisfies``/``extension`` queries on it.

The loop is closed with one client: each op starts when the previous one
has finished.  Whole passes over the inputs repeat until ``--seconds``
have elapsed, so every run weighs each input class alike.  Each pass runs
in a fresh process of its own, as a user who starts ``ialc`` for every
request would, so no pass can reuse state an earlier pass left behind:
it imports ``ialc`` and finishes one cold warm-up op (its set-up), then
sends every input once.  On a shared host the CPU switches between speed
states up to 1.8 times apart, for seconds or minutes at a time, and CPU
time tracks wall time.  So a fixed pure-Python reference loop is timed
before the first op and after every op, and each time is scaled to a
nominal speed: by ``REFERENCE_S`` over the mean of the two reference
times around it.  An op's latency is the median of its scaled times over
the passes, and ``setup_s`` the median of the scaled set-up times.
``ops_per_s`` is ops per pass over the sum of the latencies, and the
percentiles are taken over the ops of a pass.  Every answer is checked
against the committed reference (``pool/``).

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` every op runs twice: once through the same untimed
path, and once through the public library functions the CLI calls, in
the CLI's order, with spans and counters recorded around each call from
this file.  The two runs must agree on every verdict and exact count, and
every pass must repeat the first pass's counts.  Per-layer metrics are
per pass; spans go to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it list every metric, by the names and units ``BENCHMARK.json`` gives.
``correct`` is false when an answer contradicts the reference, when an
op other than the known deep-nesting defect crashes or exits with the
wrong code, or when passes or traced and untraced runs disagree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import gen
import inputs

PROVE_DEPTH = 16
EVAL_SIZES = (3, 4, 20, 30, 40)
RUN_LIMIT_S = 170          # a run must end within 180 s
# reference() at full speed on the 2-CPU 2.1 GHz Xeon host, Python 3.11,
# that the benchmark was built on; times are scaled to this speed
REFERENCE_S = 0.0012

LAYERS = ("syntax", "modelgen", "semantics", "sequent", "hilbert")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no ialc sources, bad config)."""


# ---------------------------------------------------------------------------
# Loading the program
# ---------------------------------------------------------------------------

def import_ialc(src: Path) -> types.SimpleNamespace:
    """Import ialc from src and check that it came from there."""
    importlib.invalidate_caches()
    cli = importlib.import_module("ialc.cli")
    origin = Path(cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"ialc was imported from {origin}, not from {src}")
    return types.SimpleNamespace(cli=cli, **{n: sys.modules[f"ialc.{n}"] for n in LAYERS})


def input_errors(m) -> tuple:
    """The exceptions ``ialc.cli.run`` reports as exit 3."""
    return (m.syntax.ParseError, m.semantics.ModelFileError, m.sequent.ProofFileError,
            m.semantics.UnassignedNominalError, m.hilbert.SchemaError, OSError, ValueError)


# ---------------------------------------------------------------------------
# Untraced ops: the user path
# ---------------------------------------------------------------------------

def call_cli(m, argv: list[str]):
    """(exit code or None on a crash, stdout, crash name, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = m.cli.run(argv)
    except Exception as e:      # a crash escaping the CLI is data, not a harness error
        rc, crash = None, type(e).__name__
    return rc, out.getvalue(), crash, time.perf_counter() - t0


def answer(m, model, kind: str, text: str):
    if kind == "sequent":
        return m.semantics.sequent_valid(model, m.syntax.parse_sequent(text))
    if kind == "satisfies":
        return m.semantics.satisfies(model, m.syntax.parse_formula(text))
    return sorted(m.semantics.extension(model, m.syntax.parse_concept(text)))


def untraced(m, op: inputs.Op) -> tuple[dict, float]:
    """Run one op as a user would; returns (outcome, seconds)."""
    if op.kind == "countermodel":
        rc, out, crash, dt = call_cli(m, ["countermodel", op.path, "--max-worlds",
                                          str(op.max_worlds)])
        try:
            model = json.loads(out.partition("\n")[2]) if rc == 1 else None
        except json.JSONDecodeError:
            model = None        # judged wrong: a countermodel must be printed
        return {"rc": rc, "crash": crash, "stdout": out, "model": model}, dt
    if op.kind == "hilbert":
        rc, out, crash, dt = call_cli(m, ["check", op.path])
        return {"rc": rc, "crash": crash, "stdout": out}, dt
    if op.kind == "prove":
        rc, out, crash, dt = call_cli(m, ["prove", op.path, "--depth", str(PROVE_DEPTH),
                                          "--emit-proof", op.proof_path])
        visited = re.search(r"visited (\d+)", out)
        oc = {"rc": rc, "crash": crash, "check_rc": None,
              "visited": int(visited.group(1)) if visited else None}
        if rc == 0:
            rc2, out2, crash2, dt2 = call_cli(m, ["check", op.proof_path])
            oc.update(check_rc=rc2, crash=crash2)
            dt += dt2
        return oc, dt
    t0 = time.perf_counter()
    try:
        model, warnings = m.semantics.load_model(op.path)
        oc = {"error": False, "warnings": len(warnings),
              "answers": [answer(m, model, k, q) for k, q in op.queries]}
    except m.semantics.ModelFileError:
        oc = {"error": True, "warnings": 0, "answers": []}
    except Exception as e:
        oc = {"crash": type(e).__name__}
    return oc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Checking answers against the reference
# ---------------------------------------------------------------------------

OK, UNDECIDED, FAILED, WRONG = "ok", "undecided", "failed", "wrong"


def tree_nodes(tree) -> int:
    """Nodes of a proof tree, or of its JSON document."""
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node["premises"] if isinstance(node, dict) else node.premises)
    return n


def judge(m, op: inputs.Op, oc: dict) -> tuple[str, str]:
    """(status, note).  ok: the expected definite answer; undecided: an
    honest unknown or an expected input error; failed: a crash or a wrong
    exit code; wrong: an answer that contradicts the reference."""
    if oc.get("crash"):
        return FAILED, f"crash {oc['crash']}"
    ref = op.ref
    if op.kind == "eval":
        if oc["error"] != ref["error"] or oc["warnings"] != ref["warnings"]:
            return WRONG, f"error/warnings {oc['error']}/{oc['warnings']}"
        if oc["answers"] != ref["answers"]:
            return WRONG, "query answers differ from the reference"
        return (UNDECIDED, "") if ref["error"] else (OK, "")
    rc = oc["rc"]
    if ref.get("error"):
        return (UNDECIDED, "") if rc == 3 else (FAILED, f"exit {rc}, expected 3")
    if op.kind == "hilbert":
        want = 0 if ref["accepted"] else 1
        return (OK, "") if rc == want else (WRONG, f"exit {rc}, expected {want}")
    if op.kind == "prove":
        if rc == 2:
            return UNDECIDED, ""
        if rc != 0:
            return FAILED, f"prove exit {rc}"
        if ref["refuted"]:
            return WRONG, "proved a goal that has a countermodel"
        if oc["check_rc"] != 0:
            return WRONG, f"check of the emitted proof exited {oc['check_rc']}"
        return OK, ""
    # countermodel
    worlds = ref["worlds"] if ref["worlds"] and ref["worlds"] <= op.max_worlds else None
    if rc not in (0, 1):
        return FAILED, f"exit {rc}"
    if worlds is None:
        return (OK, "") if rc == 0 else (WRONG, "countermodel to a goal with none")
    if rc == 0:
        return WRONG, f"no countermodel, reference has one at {worlds} worlds"
    head = oc["stdout"].partition("\n")[0]
    found = re.match(r"countermodel with (\d+) worlds", head)
    if not found or int(found.group(1)) != worlds or oc["model"] is None:
        return WRONG, f"{head!r}, reference: {worlds} worlds"
    try:
        model, _ = m.semantics.model_from_dict(oc["model"], raw=True)
    except m.semantics.ModelFileError as e:
        return WRONG, f"printed countermodel does not load: {e}"
    if not m.semantics.validate_interpretation(model).ok:
        return WRONG, "countermodel fails frame validation"
    goal = m.syntax.parse_problem(op.text).sequent()
    if m.semantics.sequent_valid(model, goal):
        return WRONG, "countermodel does not falsify the goal"
    return OK, ""


def verdict(op: inputs.Op, oc: dict):
    """What traced and untraced runs of an op must agree on."""
    if oc.get("crash"):
        return ("crash", oc["crash"])
    if op.kind == "eval":
        return (oc["error"], oc["warnings"], oc["answers"])
    if op.kind == "countermodel":
        return (oc["rc"], oc.get("model"))
    if op.kind == "prove":
        return (oc["rc"], oc.get("check_rc"), oc.get("visited"), oc.get("proof_nodes"))
    return (oc["rc"],)


# ---------------------------------------------------------------------------
# Traced ops: the CLI's library calls, in its order, with spans
# ---------------------------------------------------------------------------

class Trace:
    """Spans for ops and layer calls; counts and busy time per layer.

    Calls made once per model (``next()``, ``sequent_valid``, ``extension``)
    number in the hundreds of thousands, so they are aggregated into
    counts and busy time for their op instead of getting a span each."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.busy[name] += t1 - t0
            self.calls[name] += 1
            self.spans.append((self.op, name, t0, t1))

    def add(self, name: str, seconds: float, calls: int = 1):
        self.busy[name] += seconds
        self.calls[name] += calls


def traced_countermodel(m, op, tr: Trace) -> dict:
    with open(op.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("syntax.parse"):
        goal = m.syntax.parse_problem(text).sequent()
    sig = m.modelgen.signature_for(goal, op.max_worlds)
    models = m.modelgen.enumerate_models(sig)
    sequent_valid = m.semantics.sequent_valid
    next_s, yielded = defaultdict(float), Counter()
    valid_s, found, n = 0.0, None, 1
    clock = time.perf_counter
    while True:
        t0 = clock()
        model = next(models, None)
        t1 = clock()
        if model is None:
            next_s[n] += t1 - t0
            break
        n = len(model.worlds)
        next_s[n] += t1 - t0
        yielded[n] += 1
        ok = sequent_valid(model, goal, True)
        valid_s += clock() - t1
        if not ok:
            found = model
            break
    for w, s in next_s.items():
        tr.add(f"modelgen.next.w{w}", s, yielded[w])
    tr.counts.update({f"modelgen.models_yielded.w{w}": c for w, c in yielded.items()})
    tr.add("semantics.sequent_valid", valid_s, sum(yielded.values()))
    with tr.span("syntax.render"):
        m.syntax.render(goal)
    if found is None:
        return {"rc": 0, "crash": None, "model": None}
    doc = json.loads(json.dumps(m.semantics.model_to_dict(found)))
    return {"rc": 1, "crash": None, "model": doc}


def traced_prove(m, op, tr: Trace) -> dict:
    with open(op.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("syntax.parse"):
        goal = m.syntax.parse_problem(text).sequent()
    with tr.span("sequent.prove"):
        result = m.sequent.prove(goal, max_depth=PROVE_DEPTH,
                                 max_visited=m.cli.DEFAULT_VISITED)
    tr.counts["sequent.visited"] += result.visited
    tr.counts["sequent.proved"] += result.proved
    with tr.span("syntax.render"):
        m.syntax.render(goal)
    oc = {"rc": 0 if result.proved else 2, "crash": None, "check_rc": None,
          "visited": result.visited}
    if result.proved:
        with tr.span("sequent.proof_io"):
            m.sequent.save_proof(result.tree, op.proof_path)
        with tr.span("sequent.proof_io"):
            tree = m.sequent.load_proof(op.proof_path)
        with tr.span("sequent.check"):
            checked = m.sequent.check_proof(tree)
        nodes = tree_nodes(tree)
        tr.counts["sequent.proof_nodes"] += nodes
        oc.update(check_rc=0 if checked.ok else 1, proof_nodes=nodes)
    return oc


def traced_hilbert(m, op, tr: Trace) -> dict:
    with open(op.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("hilbert.parse"):
        proof = m.hilbert.parse_hilbert_proof(text)
    with tr.span("hilbert.check"):
        checked = m.hilbert.check_hilbert_proof(proof)
    tr.counts["hilbert.lines"] += len(proof.lines)
    return {"rc": 0 if checked.ok else 1, "crash": None}


def traced_eval(m, op, tr: Trace) -> dict:
    w = len(op.model["worlds"])
    with tr.span(f"semantics.load_raw.w{w}"):
        model, warnings = m.semantics.load_model(op.path, raw=True)
    with tr.span(f"semantics.validate.w{w}"):
        report = m.semantics.validate_interpretation(model)
    if not report.ok:
        return {"error": True, "warnings": 0, "answers": []}
    calls = {"sequent": (m.syntax.parse_sequent, m.semantics.sequent_valid),
             "satisfies": (m.syntax.parse_formula, m.semantics.satisfies),
             "extension": (m.syntax.parse_concept, m.semantics.extension)}
    answers = []
    clock = time.perf_counter
    for kind, text in op.queries:
        parse, query = calls[kind]
        t0 = clock()
        item = parse(text)
        t1 = clock()
        got = query(model, item)
        t2 = clock()
        tr.add("syntax.parse", t1 - t0)
        tr.add(f"semantics.{query.__name__}", t2 - t1)
        answers.append(sorted(got) if kind == "extension" else got)
    return {"error": False, "warnings": len(warnings), "answers": answers}


TRACED = {"countermodel": traced_countermodel, "prove": traced_prove,
          "hilbert": traced_hilbert, "eval": traced_eval}


def traced(m, op, tr: Trace) -> tuple[dict, float]:
    t0 = time.perf_counter()
    try:
        with tr.span(f"op.{op.kind}"):
            oc = TRACED[op.kind](m, op, tr)
    except input_errors(m):
        oc = {"rc": 3, "crash": None} if op.kind != "eval" else \
             {"error": True, "warnings": 0, "answers": []}
    except Exception as e:      # same boundary as the untraced run
        oc = {"crash": type(e).__name__}
    return oc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

WARMUP_MODEL = {"worlds": [0, 1], "leq": [[0, 1]], "roles": {"R": [[0, 1], [1, 1]]},
                "atoms": {"A": [1]}, "nominals": {"x": 0, "y": 1}}


def warmup_op(workload: str, work: Path) -> inputs.Op:
    """A fixed cold op: for countermodel, a valid goal whose sweep visits
    every preorder up to three worlds and so builds modelgen's tables."""
    if workload == "countermodel":
        op = inputs.Op("countermodel", "warmup", gen.problem("A -> A"), 3)
    elif workload == "prove_check":
        op = inputs.Op("prove", "warmup", gen.GOLDEN["axiom1"])
    else:
        op = inputs.Op("eval", "warmup", model=WARMUP_MODEL,
                       queries=[["sequent", "x : A |- x : A"], ["extension", "some R.A"]])
    materialize(op, work, "warmup")
    return op


def cold_tables(m, bound: int) -> float:
    """Time to build modelgen's tables up to bound, from a fresh import:
    an empty-signature sweep timed cold minus the same sweep warm."""
    sig = m.modelgen.Signature(max_worlds=bound)
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in m.modelgen.enumerate_models(sig):
            pass
        times.append(time.perf_counter() - t0)
    return times[0] - times[1]


def set_up(workload: str, src: Path, work: Path, tables: bool):
    """Import ialc in this fresh process and finish one cold warm-up op;
    returns (modules, set-up seconds, cold table seconds or None)."""
    op = warmup_op(workload, work)
    t0 = time.perf_counter()
    m = import_ialc(src)
    cold = cold_tables(m, 3) if tables else None
    oc, _ = untraced(m, op)
    setup_s = time.perf_counter() - t0
    if oc.get("crash") or oc.get("rc") == 3 or oc.get("error"):
        raise SetupError(f"warm-up op failed: {oc}")
    return m, setup_s, cold


# ---------------------------------------------------------------------------
# One pass, in a process of its own
# ---------------------------------------------------------------------------

def set_paths(op: inputs.Op, work: Path, stem: str) -> None:
    suffix = {"countermodel": ".ialc", "prove": ".ialc", "hilbert": ".hpf",
              "eval": ".model"}[op.kind]
    op.path = str(work / (stem + suffix))
    op.proof_path = str(work / (stem + ".prf"))


def materialize(op: inputs.Op, work: Path, stem: str) -> None:
    set_paths(op, work, stem)
    with open(op.path, "w", encoding="utf-8") as fh:
        if op.kind == "eval":
            json.dump(op.model, fh)
        else:
            fh.write(op.text)


def reference() -> float:
    """Seconds for a fixed pure-Python loop of the set, dict and list work
    the program does most: how fast the host runs right now."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(1500):
        key = frozenset((i % 13, i % 7, i * 3 % 11))
        counts[key] = counts.get(key, 0) + 1
        [j for j in key if j > 2]
    return time.perf_counter() - t0


def plain_pass(m, ops) -> dict:
    """Each op once, timed alone and then judged, with the reference loop
    timed before the first op and after each op."""
    out: dict = {"times": [], "refs": [reference()], "keys": [], "status": [],
                 "notes": [], "mismatches": []}
    for op in ops:
        oc, dt = untraced(m, op)
        out["refs"].append(reference())
        status, note = judge(m, op, oc)
        out["times"].append(dt)
        out["keys"].append(verdict(op, oc))
        out["status"].append(status)
        if note:
            out["notes"].append(f"{op.ident}: {status}: {note}")
    return out


def traced_pass(m, ops) -> dict:
    """Each op untraced (timed, with a model counter on the CLI's
    enumeration) and then traced; verdicts and exact counts must agree."""
    tr = Trace()
    out: dict = {"keys": [], "status": [], "notes": [], "mismatches": [],
                 "untraced_s": 0.0, "traced_s": 0.0}
    cli_models = [0]
    enumerate_models = m.sequent.enumerate_models

    def counting(sig):
        for model in enumerate_models(sig):
            cli_models[0] += 1
            yield model

    m.sequent.enumerate_models = counting
    try:
        for i, op in enumerate(ops):
            oc, dt = untraced(m, op)
            out["untraced_s"] += dt
            if op.kind == "prove" and oc.get("check_rc") is not None:
                with open(op.proof_path, "r", encoding="utf-8") as fh:
                    oc["proof_nodes"] = tree_nodes(json.load(fh))
            status, note = judge(m, op, oc)
            out["keys"].append(verdict(op, oc))
            out["status"].append(status)
            if note:
                out["notes"].append(f"{op.ident}: {status}: {note}")
            tr.op = i
            t_oc, t_dt = traced(m, op, tr)
            out["traced_s"] += t_dt
            if verdict(op, t_oc) != verdict(op, oc):
                out["mismatches"].append(f"{op.ident}: traced and untraced answers differ")
    finally:
        m.sequent.enumerate_models = enumerate_models
    models = sum(v for k, v in tr.counts.items() if k.startswith("modelgen.models_yielded"))
    if models != cli_models[0]:
        out["mismatches"].append(f"models yielded: traced {models}, untraced {cli_models[0]}")
    out.update(busy=dict(tr.busy), calls=dict(tr.calls), counts=dict(tr.counts),
               spans=tr.spans)
    return out


def child(args, src: Path, work: Path) -> int:
    """One pass in this fresh process; prints its result as JSON."""
    ops = inputs.build(inputs.load_pool(args.workload), args.workload, args.seed)
    for i, op in enumerate(ops):
        set_paths(op, work, f"op{i}")
    before = reference()
    m, setup_s, cold = set_up(args.workload, src, work,
                              tables=bool(args.trace) and args.workload == "countermodel")
    out = (traced_pass if args.trace else plain_pass)(m, ops)
    out.update(setup_s=setup_s, setup_refs=[before, out.get("refs", [before])[0]],
               cold_s=cold)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_passes(args, work: Path) -> list[dict]:
    """Whole passes, each in a fresh process, until --seconds have elapsed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pass-dir", str(work)]
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise SetupError(f"pass {len(passes)} ran past {RUN_LIMIT_S} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"pass {len(passes)} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-3000:]}")
        passes.append(json.loads(lines[-1]))
        if time.perf_counter() - start >= args.seconds:
            return passes


def tally(ops, passes) -> tuple[Counter, list[str], int]:
    """(statuses over all passes, notes, count of problems that make the
    run incorrect).  A problem is a wrong answer, a crash or wrong exit
    code of an op that is not a known defect, an answer that differs from
    the first pass's, or a traced/untraced disagreement."""
    status, notes, bad = Counter(), [], 0
    seen = set()
    for n, p in enumerate(passes):
        status.update(p["status"])
        problems = list(p["mismatches"])
        for op, st in zip(ops, p["status"]):
            if st == WRONG or (st == FAILED and not op.ref.get("known_defect")):
                problems.append(f"{op.ident}: {st}")
        problems += [f"{op.ident}: answer changed between passes"
                     for op, a, b in zip(ops, p["keys"], passes[0]["keys"]) if a != b]
        bad += len(problems)
        for note in p["notes"] + problems:
            if note not in seen and len(notes) < 20:
                seen.add(note)
                notes.append(f"pass {n}: {note}" if note in problems else note)
    return status, notes, bad


def plain_metrics(passes, status: Counter) -> dict:
    """End-to-end metrics.  Each time is scaled to the nominal speed: by
    REFERENCE_S over the mean of the reference times taken just before
    and just after it.  An op's latency, and the set-up time, are the
    medians over the passes."""
    def scaled(t, before, after):
        return t * REFERENCE_S * 2 / (before + after)

    per_op = zip(*([scaled(t, a, b) for t, a, b in zip(p["times"], p["refs"], p["refs"][1:])]
                   for p in passes))
    latency = [statistics.median(ts) for ts in per_op]
    ms = sorted(x * 1000 for x in latency)
    attempted = sum(status.values())
    return {
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "ok_ratio": (attempted - status[FAILED] - status[WRONG]) / attempted,
        "decided_ratio": status[OK] / attempted,
        "setup_s": statistics.median(scaled(p["setup_s"], *p["setup_refs"])
                                     for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def merge_traces(passes) -> tuple[Trace, bool]:
    """All passes' busy time, calls and counts, and whether every pass had
    the same exact counts."""
    tr = Trace()
    for n, p in enumerate(passes):
        for k, v in p["busy"].items():
            tr.busy[k] += v
        tr.calls.update(p["calls"])
        tr.counts.update(p["counts"])
        tr.spans += [[[n, i], name, t0, t1] for i, name, t0, t1 in p["spans"]]
    return tr, all(p["counts"] == passes[0]["counts"] for p in passes)


def layer_metrics(tr: Trace, passes: int, untraced_s: float, traced_s: float,
                  cold_s: float) -> dict:
    def under(name, k):
        return k == name or k.startswith(name + ".")

    def busy(name):
        return sum(v for k, v in tr.busy.items() if under(name, k)) / passes

    def calls(name):
        return sum(v for k, v in tr.calls.items() if under(name, k)) // passes

    def count(name):
        return tr.counts[name] // passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "syntax.parse_calls": calls("syntax.parse"),
        "syntax.parse_s": busy("syntax.parse"),
        "syntax.render_calls": calls("syntax.render"),
        "syntax.render_s": busy("syntax.render"),
        "modelgen.models_yielded": sum(count(f"modelgen.models_yielded.w{n}")
                                       for n in (1, 2, 3)),
        "modelgen.next_s": busy("modelgen.next"),
        "modelgen.cold_tables_s": cold_s,
        "semantics.sequent_valid_calls": calls("semantics.sequent_valid"),
        "semantics.sequent_valid_s": busy("semantics.sequent_valid"),
        "semantics.satisfies_calls": calls("semantics.satisfies"),
        "semantics.satisfies_s": busy("semantics.satisfies"),
        "semantics.extension_calls": calls("semantics.extension"),
        "semantics.extension_s": busy("semantics.extension"),
        "sequent.prove_calls": calls("sequent.prove"),
        "sequent.prove_s": busy("sequent.prove"),
        "sequent.visited": count("sequent.visited"),
        "sequent.check_calls": calls("sequent.check"),
        "sequent.check_s": busy("sequent.check"),
        "sequent.proof_nodes": count("sequent.proof_nodes"),
        "sequent.proof_io_s": busy("sequent.proof_io"),
        "hilbert.check_calls": calls("hilbert.check"),
        "hilbert.parse_s": busy("hilbert.parse"),
        "hilbert.check_s": busy("hilbert.check"),
        "hilbert.lines": count("hilbert.lines"),
        "cli.residual_s": untraced_s / passes - sum(busy(p) for p in LAYERS),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for n in (1, 2, 3):
        out[f"modelgen.models_yielded.w{n}"] = count(f"modelgen.models_yielded.w{n}")
        out[f"modelgen.next_s.w{n}"] = busy(f"modelgen.next.w{n}")
    for n in EVAL_SIZES:
        out[f"semantics.load_raw_s.w{n}"] = busy(f"semantics.load_raw.w{n}")
        out[f"semantics.validate_s.w{n}"] = busy(f"semantics.validate.w{n}")
    out["modelgen.models_per_s"] = ratio(out["modelgen.models_yielded"], out["modelgen.next_s"])
    out["semantics.sequent_valid_us"] = 1e6 * ratio(out["semantics.sequent_valid_s"],
                                                    out["semantics.sequent_valid_calls"])
    out["sequent.visited_per_s"] = ratio(out["sequent.visited"], out["sequent.prove_s"])
    out["sequent.proved_ratio"] = ratio(count("sequent.proved"), out["sequent.prove_calls"])
    out["sequent.check_nodes_per_s"] = ratio(out["sequent.proof_nodes"], out["sequent.check_s"])
    return out


def metric_units(root: Path, key: str) -> dict:
    """Metric names and units, as BENCHMARK.json lists them under key."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return {e["name"]: e["unit"] for e in json.load(fh)[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-dir", help=argparse.SUPPRESS)   # set for one pass
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ialc" / "cli.py").is_file():
        print(f"error: no ialc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        if args.pass_dir:
            return child(args, src, Path(args.pass_dir))
        units = metric_units(root, "per_layer" if args.trace else "end_to_end")
        ops = inputs.build(inputs.load_pool(args.workload), args.workload, args.seed)
        work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            for i, op in enumerate(ops):
                materialize(op, work, f"op{i}")
            passes = run_passes(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        status, notes, bad = tally(ops, passes)
        if args.trace:
            tr, same_counts = merge_traces(passes)
            if not same_counts:
                notes.append("exact counts differ between passes")
                bad += 1
            cold = [p["cold_s"] for p in passes if p["cold_s"] is not None]
            metrics = layer_metrics(tr, len(passes), sum(p["untraced_s"] for p in passes),
                                    sum(p["traced_s"] for p in passes),
                                    statistics.median(cold) if cold else 0.0)
            spans_path = root / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tr.spans, fh)
        else:
            metrics = plain_metrics(passes, status)
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise SetupError(f"BENCHMARK.json names metrics run.py does not make: {missing}")
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(status.values())
    failed = status[FAILED] + status[WRONG]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} passes, {attempted} ops ({dict(status)})")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": bad == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
