"""The benchmark's workloads: fixed corpora, the operations on them, and
the checks on every output.

Every workload is one caller in a closed loop: it issues an operation,
waits for the reply, and only then issues the next.  A sweep runs every
operation of the corpus once, in an order drawn from the seed; models
are rebuilt from their dictionaries at the start of a sweep (or inside
the operation), so no per-model cache survives from one sweep to the
next.

The corpora do not depend on the seed, only the order does.  Drawn
afresh for every seed, hm-random's pairs vary too much to compare runs:
per-pair Hennessy-Milner cost has a coefficient of variation near 3
(3 ms medians, single pairs above 2 s), so the total of a 20-second run
moves by 20-30% between seeds.  A fixed corpus also lets every run
check its outputs against digests recorded once (expected.json).

The corpora are also kept small enough that a sweep takes about half a
second (eval-wide about 0.8 s), so that a run of 25 seconds gives
every operation dozens of samples.  An operation's reported time
is its best over the sweeps, and on a shared machine that best settles
only over many samples: an operation of 25 ms varied by a quarter
between windows of five runs and by under a tenth between windows of
25 or more.

Known ceilings (ROADMAP items 4 and 5), which fix the sizes below:

* The oracle explodes on structured inputs.  hm-check takes 16.8 s on
  spines(7)/spines(8) and over 100 s on porcupine(4) with the biint
  fragment, and a single random 5-state pair takes up to 0.85 s, so
  oracle inputs stay at 4 random states (3-4 in cli-small).
* At the default recursion limit parse raises RecursionError at 170
  parenthesised levels and truth_set on an And(Box ...) chain at depth
  240, so the depth ladder stops at 150.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# Shared pieces


@dataclass
class Op:
    """One operation.  `run(state)` is the timed call; `settle(raw,
    full)` runs untimed afterwards and returns (digest, output bytes,
    problems).  With full=False only the digest is taken.  Operations
    with the same `group` share per-sweep state and keep their order."""

    key: str
    run: Callable
    settle: Callable
    group: str | None = None


@dataclass
class Plan:
    """A workload's corpus.  `prepare()` builds the per-sweep state
    (fresh models); its time counts toward the sweep's wall time."""

    ops: list
    prepare: Callable = lambda: None


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def upset_violation(m, xs) -> tuple | None:
    """First order pair leaving the set, or None when xs is an upset."""
    for a, b in sorted(m.leq):
        if a in xs and b not in xs:
            return (a, b)
    return None


def witness_problems(kk, witnesses, m, m2) -> list[str]:
    """Witnesses must separate their pairs and stay within their
    stage's nesting depth."""
    problems = list(kk.verify_witnesses(witnesses, m, m2))
    for w in witnesses:
        depth = kk.nesting_depth(w.formula)
        if depth > w.stage:
            problems.append(f"witness for {w.pair} has depth {depth} "
                            f"beyond its stage {w.stage}")
    return problems


class CliCall:
    """One in-process `cli.main(argv)` call with stdout captured.  The
    bytes of --output, if given, are read when the call settles."""

    def __init__(self, cli, argv, output=None):
        self.cli = cli
        self.argv = list(argv) + (["--output", output] if output else [])
        self.output = output

    def __call__(self, state=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode(), err.getvalue()

    def harvest(self, raw):
        """(exit code, stdout bytes, --output bytes, stderr text)"""
        code, stdout, err = raw
        written = b""
        if self.output and code == 0:
            with open(self.output, "rb") as fh:
                written = fh.read()
        return code, stdout, written, err


def cli_settle(call: CliCall, check=None):
    """Settle a CLI call: digest of exit code and bytes; with full=True
    also exit code 0 and the verb-specific check of its JSON."""

    def settle(raw, full):
        code, stdout, written, err = call.harvest(raw)
        digest = sha(canonical([code, sha(stdout), sha(written)]))
        problems = []
        if full:
            if code != 0:
                problems.append(f"exit code {code}: {err.strip()[:200]}")
            elif check is not None:
                problems += check(json.loads(written or stdout))
        return digest, len(stdout) + len(written), problems

    return settle


def write_model(kk, path, m) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kk.model_to_json(m))
    return path


# ---------------------------------------------------------------------------
# hm-random: hennessy_milner_check on random strictly condensed pairs

# The six fragment rows of acceptance criterion c04.
HM_ROWS = (
    ("int", "standard", ("int", 1, 0), dict(n_boxes=1, n_diamonds=0)),
    ("intdual", "standard", ("intdual", 0, 1), dict(n_boxes=0, n_diamonds=1)),
    ("biint", "standard", ("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("tense", "tense", ("biint", 1, 1, True), {}),
    ("h", "h", ("biint", 1, 1, True), {}),
    ("ek", "ek", ("int", 2, 0), dict(n_boxes=2)),
)
HM_PAIRS_PER_ROW = 4
HM_STATES = 4


def _hm_report_dict(report) -> dict:
    return {"passed": report.passed,
            "fixpoint": sorted(report.fixpoint),
            "oracle": sorted(report.oracle),
            "oracle_exact": report.oracle_exact,
            "witnesses": [w.to_dict() for w in report.witnesses],
            "problems": list(report.problems)}


def build_hm_random(kk, mods, workdir) -> Plan:
    ops = []
    for label, flavor, frag_args, kw in HM_ROWS:
        frag = kk.Fragment(*frag_args)
        for i in range(HM_PAIRS_PER_ROW):
            rng = random.Random(f"hm-random/{label}/{i}")
            left, right = (kk.model_to_dict(mods.sampling.random_model(
                rng, flavor, n_states=HM_STATES, strict=True, **kw))
                for _ in range(2))

            def run(state, left=left, right=right, frag=frag):
                m, m2 = kk.model_from_dict(left), kk.model_from_dict(right)
                return m, m2, kk.hennessy_milner_check(m, m2, frag)

            def settle(raw, full):
                m, m2, report = raw
                problems = []
                if full:
                    if not report.passed:
                        problems.append(f"HM check failed: {report.problems}")
                    if report.oracle != report.fixpoint:
                        problems.append("oracle differs from fixpoint")
                    if not report.oracle_exact:
                        problems.append("oracle not exact with budget=None")
                    problems += witness_problems(kk, report.witnesses, m, m2)
                return sha(canonical(_hm_report_dict(report))), 0, problems

            ops.append(Op(f"{label}/{i}", run, settle))
    return Plan(ops)


# ---------------------------------------------------------------------------
# spines-equiv: CLI bisim and equiv on deep-stage gallery pairs

SPINE_LADDER = range(2, 10)      # spines(k) against spines(k+1)
PORCUPINES = range(1, 7)         # porcupine(n) against porcupine_trimmed(n)


def _bisim_check(total, root):
    def check(out):
        problems = []
        if len(out["pairs"]) + len(out["removed"]) != total:
            problems.append("surviving plus removed pairs do not cover "
                            "the product")
        if [root, root] in out["pairs"]:
            problems.append(f"roots ({root}, {root}) were not separated")
        stages = [r["stage"] for r in out["removed"]]
        if stages != sorted(stages) or max(stages, default=0) > out["rounds"]:
            problems.append("removal stages out of order or past the rounds")
        return problems
    return check


def _equiv_check(kk, left, right, total, root):
    def check(out):
        problems = []
        if len(out["pairs"]) + len(out["witnesses"]) != total:
            problems.append("surviving pairs plus witnesses do not cover "
                            "the product")
        witnesses = [kk.Witness(tuple(w["pair"]), kk.parse(w["formula"]),
                                w["orientation"], w["stage"])
                     for w in out["witnesses"]]
        if not any(w.pair == (root, root) for w in witnesses):
            problems.append(f"no witness separates ({root}, {root})")
        m, m2 = kk.load_model(left), kk.load_model(right)
        return problems + witness_problems(kk, witnesses, m, m2)
    return check


def build_spines_equiv(kk, mods, workdir) -> Plan:
    files = {}
    for k in range(SPINE_LADDER[0], SPINE_LADDER[-1] + 2):
        files[("spines", k)] = kk.build_example("spines", (k,))
    for n in PORCUPINES:
        for name in ("porcupine", "porcupine_trimmed"):
            files[(name, n)] = kk.build_example(name, (n,))
    paths = {key: write_model(kk, os.path.join(workdir, f"{key[0]}_{key[1]}.json"), m)
             for key, m in files.items()}

    pairs = [(f"spines{k}", ("spines", k), ("spines", k + 1),
              ["--fragment", "int", "--boxes", "1"], "r")
             for k in SPINE_LADDER]
    pairs += [(f"porcupine{n}", ("porcupine", n), ("porcupine_trimmed", n),
               ["--fragment", "biint"], "x") for n in PORCUPINES]
    ops = []
    for label, lkey, rkey, frag_flags, root in pairs:
        total = len(files[lkey].states) * len(files[rkey].states)
        for verb in ("bisim", "equiv"):
            call = CliCall(mods.cli,
                           [verb, "--left", paths[lkey], "--right", paths[rkey]]
                           + frag_flags,
                           output=os.path.join(workdir, f"out_{verb}_{label}.json"))
            check = (_bisim_check(total, root) if verb == "bisim" else
                     _equiv_check(kk, paths[lkey], paths[rkey], total, root))
            ops.append(Op(f"{verb}/{label}", call, cli_settle(call, check)))
    return Plan(ops)


# ---------------------------------------------------------------------------
# eval-wide: parse and truth_set on 30-45-state models

# flavor, fragment the formulas are drawn from, random_model arguments
EVAL_FLAVORS = (
    ("h", ("biint", 1, 1, True), {}),
    ("gpt", ("biint", 1, 1, True), {}),
    ("fs", ("biint", 1, 1), {}),
    ("standard", ("biint", 2, 1), dict(n_boxes=2, n_diamonds=1)),
    ("ek", ("int", 2, 0), dict(n_boxes=2)),
)
EVAL_SIZES = (30, 45)
EVAL_FORMULAS_PER_MODEL = 6
EVAL_DEPTH = 6
LADDER_DEPTHS = (50, 150)
# The ladder has a smaller model of its own: on 30 states one gpt or fs
# chain takes 0.2-0.6 s, too long for its best time to settle in a run.
LADDER_SIZE = 15


def chain_text(depth: int) -> str:
    """[]1 (...) & q nested `depth` times around q."""
    text = "q"
    for _ in range(depth):
        text = f"[]1 ({text}) & q"
    return text


def build_eval_wide(kk, mods, workdir) -> Plan:
    atoms = ("p", "q", "r")
    model_dicts = []
    texts = []  # (model index, model label, formula label, formula text)
    for flavor, frag_args, kw in EVAL_FLAVORS:
        frag = kk.Fragment(*frag_args)
        for n in EVAL_SIZES + (LADDER_SIZE,):
            rng = random.Random(f"eval-wide/{flavor}/{n}")
            index = len(model_dicts)
            model_dicts.append(kk.model_to_dict(mods.sampling.random_model(
                rng, flavor, n_states=n, atoms=atoms, **kw)))
            if n == LADDER_SIZE:
                texts += [(index, f"{flavor}{n}", f"chain{d}", chain_text(d))
                          for d in LADDER_DEPTHS]
                continue
            for i in range(EVAL_FORMULAS_PER_MODEL):
                f = mods.sampling.random_formula(rng, frag, EVAL_DEPTH, atoms,
                                                 allow_ck=(flavor == "ek"))
                texts.append((index, f"{flavor}{n}", str(i), kk.to_string(f)))

    def prepare():
        return [kk.model_from_dict(d) for d in model_dicts]

    ops = []
    for index, model, label, text in texts:
        def run(models, index=index, text=text):
            m = models[index]
            return m, kk.truth_set(kk.parse(text), m)

        def settle(raw, full):
            m, ts = raw
            problems = []
            if full:
                bad = upset_violation(m, ts)
                if bad is not None:
                    problems.append(f"truth set is not an upset: {bad}")
            return sha(canonical(sorted(ts))), 0, problems

        ops.append(Op(f"{model}/{label}", run, settle, group=model))
    return Plan(ops, prepare)


# ---------------------------------------------------------------------------
# cli-small: one-shot CLI calls on gallery and small random model files

GALLERY = (("wedge", ()), ("wedge_strict", ()), ("spines", (2,)),
           ("spines", (3,)), ("porcupine", (2,)),
           ("porcupine_trimmed", (2,)), ("omega_chain", (3,)))
GALLERY_OUT = ("wedge", "wedge_strict", "spines(4)", "porcupine(3)",
               "porcupine_trimmed(3)", "omega_chain(5)")

# flavor, fragment flags, fragment, random_model arguments
CLI_FLAVORS = (
    ("standard", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1"],
     ("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("tense", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1",
               "--tense"], ("biint", 1, 1, True), {}),
    ("gpt", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1",
             "--tense"], ("biint", 1, 1, True), {}),
    ("h", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1",
           "--tense"], ("biint", 1, 1, True), {}),
    ("ek", ["--fragment", "int", "--boxes", "2"], ("int", 2, 0),
     dict(n_boxes=2)),
    ("fs", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1"],
     ("biint", 1, 1), {}),
)
CLI_SIZES = (3, 4)
CLI_FORMULAS_PER_MODEL = 2
# Flavors the HM property is checked on (the c04 rows), with the
# fragment flags for each pair.
CLI_HM = (
    ("standard", ["--fragment", "int", "--boxes", "1"],
     dict(n_boxes=1, n_diamonds=0)),
    ("standard", ["--fragment", "intdual", "--diamonds", "1"],
     dict(n_boxes=0, n_diamonds=1)),
    ("standard", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1"],
     dict(n_boxes=1, n_diamonds=1)),
    ("tense", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1",
               "--tense"], {}),
    ("h", ["--fragment", "biint", "--boxes", "1", "--diamonds", "1",
           "--tense"], {}),
    ("ek", ["--fragment", "int", "--boxes", "2"], dict(n_boxes=2)),
)
CLI_HM_PAIRS = 1
ORACLE_BUDGETS = (5, 20)


def _eval_check(m):
    def check(out):
        bad = upset_violation(m, frozenset(out["truth_set"]))
        return [] if bad is None else [f"truth set is not an upset: {bad}"]
    return check


def _hm_check(out):
    problems = [] if out["passed"] else [f"HM check failed: {out['problems']}"]
    if out["oracle"] != out["fixpoint"]:
        problems.append("oracle differs from fixpoint")
    return problems


def _validate_check(out):
    return [] if out["ok"] else [f"model invalid: {out['violations'][:1]}"]


def build_cli_small(kk, mods, workdir) -> Plan:
    cli, sampling = mods.cli, mods.sampling
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    # (label, model, fragment flags, fragment arguments)
    models = []
    for name, params in GALLERY:
        m = kk.build_example(name, params)
        label = name + "".join(f"_{p}" for p in params)
        flags, frag = ((["--fragment", "int", "--boxes", "1"], ("int", 1, 0))
                       if m.boxes else (["--fragment", "biint"], ("biint", 0, 0)))
        models.append((label, m, flags, frag))
    for flavor, flags, frag, kw in CLI_FLAVORS:
        for n in CLI_SIZES:
            rng = random.Random(f"cli-small/{flavor}/{n}")
            m = sampling.random_model(rng, flavor, n_states=n, strict=True, **kw)
            models.append((f"{flavor}{n}", m, flags, frag))

    ops = []

    def add(key, argv, output=False, check=None):
        call = CliCall(cli, argv, os.path.join(out_dir, key.replace("/", "_")
                                               + ".json") if output else None)
        ops.append(Op(key, call, cli_settle(call, check)))

    translatable = []
    for label, m, flags, frag_args in models:
        path = write_model(kk, os.path.join(workdir, f"{label}.json"), m)
        frag = kk.Fragment(*frag_args)
        rng = random.Random(f"cli-small/formulas/{label}")
        add(f"validate/{label}", ["validate", "--model", path],
            check=_validate_check)
        for i in range(CLI_FORMULAS_PER_MODEL):
            f = sampling.random_formula(rng, frag, 3, ("p", "q", "r"),
                                        allow_ck=(m.flavor == "ek"))
            text = kk.to_string(f)
            add(f"eval/{label}/{i}", ["eval", "--model", path,
                                      "--formula", text], check=_eval_check(m))
            if m.flavor != "ek":
                translatable.append(text)
        add(f"quotient/{label}", ["quotient", "--model", path] + flags,
            output=True)
        if m.flavor in ("standard", "tense", "gpt"):
            add(f"strictify/{label}", ["strictify", "--model", path],
                output=True)
        if m.flavor in ("standard", "tense"):
            add(f"dualize/{label}", ["dualize", "--model", path], output=True)
        if len(m.states) <= 4:
            ops_flag = "arrow,boxbar_1" if m.boxes else "arrow,coarrow"
            add(f"closure/{label}", ["closure", "--model", path,
                                     "--generators", "valuation",
                                     "--ops", ops_flag])
            if m.boxes:
                algebra = kk.close_algebra(
                    m, [xs for _, xs in sorted(m.valuation.items())],
                    ["arrow", "boxbar_1"])
                algebra_path = os.path.join(workdir, f"{label}.algebra.json")
                with open(algebra_path, "w", encoding="utf-8") as fh:
                    json.dump(algebra.to_lists(), fh)
                add(f"descriptive/{label}", ["descriptive-check", "--model",
                                             path, "--algebra", algebra_path])

    for i, text in enumerate(translatable[::2]):
        add(f"translate/{i}", ["translate", "--formula", text])
    for name in GALLERY_OUT:
        add(f"example/{name}", ["example", "--name", name], output=True)

    wedge = [os.path.join(workdir, f"{n}.json") for n in ("wedge", "wedge_strict")]
    for budget in ORACLE_BUDGETS:
        add(f"oracle/wedge/{budget}", ["oracle", "--left", wedge[0],
                                       "--right", wedge[1], "--fragment", "int",
                                       "--boxes", "1", "--budget", str(budget)])
    for row, (flavor, flags, kw) in enumerate(CLI_HM):
        for i in range(CLI_HM_PAIRS):
            rng = random.Random(f"cli-small/hm/{row}/{i}")
            pair = []
            for side, n in (("l", 3), ("r", 4)):
                m = sampling.random_model(rng, flavor, n_states=n, strict=True,
                                          **kw)
                pair.append(write_model(kk, os.path.join(
                    workdir, f"hm{row}_{i}{side}.json"), m))
            lr = ["--left", pair[0], "--right", pair[1]]
            add(f"hm-check/{row}/{i}", ["hm-check"] + lr + flags,
                check=_hm_check)
            for budget in ORACLE_BUDGETS:
                add(f"oracle/{row}/{i}/{budget}",
                    ["oracle"] + lr + flags + ["--budget", str(budget)])
    return Plan(ops)


# ---------------------------------------------------------------------------
# smoke: a few fixed operations for the counter tests


def build_smoke(kk, mods, workdir) -> Plan:
    paths = {}
    for name, params in (("wedge", ()), ("wedge_strict", ()), ("spines", (3,)),
                         ("spines", (4,))):
        label = name + "".join(str(p) for p in params)
        paths[label] = write_model(kk, os.path.join(workdir, f"{label}.json"),
                                   kk.build_example(name, params))
    frag = ["--fragment", "int", "--boxes", "1"]
    wedges = ["--left", paths["wedge"], "--right", paths["wedge_strict"]]
    spines = ["--left", paths["spines3"], "--right", paths["spines4"]]
    calls = [("bisim/wedge", ["bisim"] + wedges + frag),
             ("oracle/wedge", ["oracle"] + wedges + frag),
             ("equiv/spines3", ["equiv"] + spines + frag),
             ("eval/spines3", ["eval", "--model", paths["spines3"],
                               "--formula", "[]1 []1 ([]1 F -> F)"])]
    ops = []
    for key, argv in calls:
        call = CliCall(mods.cli, argv)
        ops.append(Op(key, call, cli_settle(call)))
    spines3, spines4 = (kk.build_example("spines", (k,)) for k in (3, 4))

    def hm(state):
        m, m2 = (kk.model_from_dict(kk.model_to_dict(x))
                 for x in (spines3, spines4))
        return m, m2, kk.hennessy_milner_check(m, m2, kk.Fragment("int", 1, 0))

    def hm_settle(raw, full):
        m, m2, report = raw
        problems = [] if report.passed or not full else ["HM check failed"]
        return sha(canonical(_hm_report_dict(report))), 0, problems

    ops.append(Op("hm/spines3", hm, hm_settle))
    return Plan(ops)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable


WORKLOADS = {w.name: w for w in (
    Workload("hm-random",
             "hennessy_milner_check on random 4-state pairs of all six "
             "c04 rows; the oracle takes over 95% of the time",
             build_hm_random),
    Workload("spines-equiv",
             "CLI equiv and bisim on spines(k)/spines(k+1) and porcupine "
             "pairs; deep stage counts, refinement and replay dominate",
             build_spines_equiv),
    Workload("eval-wide",
             "parse and truth_set of depth-6 formulas on 30-45-state models "
             "and a depth ladder on 15-state ones; effective relations "
             "dominate",
             build_eval_wide),
    Workload("cli-small",
             "many one-shot cli.main calls on small files; parsing, "
             "loading, validation, set-up and JSON output dominate",
             build_cli_small),
    Workload("smoke",
             "wedge and spines(3) only; pins the deterministic counters",
             build_smoke),
)}
