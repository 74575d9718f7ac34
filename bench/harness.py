"""Set-up, sweeps, statistics and the run record.

A run sets the workload up once (a fresh import of kripkit, input
generation, model files) and measures whole sweeps, each on the next
CPU, until --seconds have passed; every output is compared with its
recorded digest.  Times are each operation's best over the measured
sweeps, so the first, cold sweep serves as the warm-up.  With tracing,
the first half of the measured time runs untraced and the second half
traced, and the difference between their sweep times is the tracing
overhead.  Once the metrics are read, one more sweep checks every
output in full, and the set-up is repeated for its median time; both
come last so that their memory stays out of peak_rss_mb.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = tracing.PACKAGE
SETUPS = 21
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "distinguish.oracle_s": "s", "distinguish.oracle_exact": "count",
    "bisim.refine_s": "s", "bisim.rounds": "count",
    "bisim.removals": "count", "distinguish.synthesize_s": "s",
    "distinguish.replay_s": "s", "distinguish.verify_s": "s",
    "distinguish.witnesses": "count",
    "distinguish.witness_chars_max": "chars",
    "semantics.truth_set_s": "s", "semantics.truth_set_calls": "count",
    "semantics.repeat_ratio": "ratio", "relations.compose_s": "s",
    "relations.compose_calls": "count", "formula.parse_s": "s",
    "formula.to_string_s": "s", "formula.nodes": "count",
    "model.load_s": "s", "model.validate_s": "s", "model.surgery_s": "s",
    "genframe.close_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Span keys whose summed time is reported under a metric.
SPAN_METRICS = {
    "distinguish.oracle_s": "distinguish.oracle",
    "bisim.refine_s": "bisim.refine",
    "distinguish.synthesize_s": "distinguish.synthesize",
    "distinguish.verify_s": "distinguish.verify",
    "semantics.truth_set_s": "semantics.truth_set",
    "relations.compose_s": "relations.compose",
    "formula.parse_s": "formula.parse",
    "formula.to_string_s": "formula.to_string",
    "model.load_s": "model.load", "model.validate_s": "model.validate",
    "model.surgery_s": "model.surgery", "genframe.close_s": "genframe.close",
}
# The counters the traced run pins; they must repeat exactly.
DETERMINISTIC = ("bisim.rounds", "bisim.removals", "distinguish.witnesses",
                 "distinguish.witness_chars_max", "distinguish.oracle_exact",
                 "formula.nodes", "semantics.truth_set_calls",
                 "relations.compose_calls", "cli.out_bytes")


class SetupError(Exception):
    """The source tree to benchmark is missing or incomplete."""


# ---------------------------------------------------------------------------
# Set-up


def import_package():
    """Import kripkit afresh from this checkout's src directory."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package source at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    kk = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.abspath(kk.__file__)) != os.path.dirname(init):
        raise SetupError(f"imported {kk.__file__}, not the checkout's source")
    mods = SimpleNamespace(cli=importlib.import_module(PACKAGE + ".cli"),
                           sampling=importlib.import_module(PACKAGE + ".sampling"))
    return kk, mods


class CpuCycle:
    """Moves the process to the next CPU of its affinity set at each
    step, one CPU at a time.  The CPUs of a small shared machine can
    differ in speed by half for minutes, so each measurement is spread
    over all of them rather than left to where the process started."""

    def __init__(self):
        self.all = os.sched_getaffinity(0)
        self.cpus = sorted(self.all)
        self.steps = 0

    def step(self):
        cpu = self.cpus[self.steps % len(self.cpus)]
        self.steps += 1
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            self.cpus = self.cpus[:1]  # pinning refused: stay put

    def restore(self):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, self.all)


def set_up(workload, target: str):
    """One set-up in `target`: a fresh import of kripkit, the inputs and
    the model files.  Returns the plan and the seconds it took."""
    t0 = perf_counter_ns()
    kk, mods = import_package()
    os.makedirs(target, exist_ok=True)
    plan = workload.build(kk, mods, target)
    return plan, (perf_counter_ns() - t0) / 1e9


def time_set_ups(workload, workdir: str, repeats: int):
    """Seconds of `repeats` more set-ups on alternating CPUs.  Each is
    freed before the next; they run after the measured sweeps, so that
    their garbage stays out of peak_rss_mb."""
    times = []
    cycle = CpuCycle()
    try:
        for i in range(repeats):
            cycle.step()
            target = os.path.join(workdir, f"setup{i}")
            times.append(set_up(workload, target)[1])
            gc.collect()
            shutil.rmtree(target)
    finally:
        cycle.restore()
    return times


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class Sweep:
    wall_ns: int = 0
    prep_ns: int = 0
    op_ns: dict = field(default_factory=dict)  # op index -> time
    digests: dict = field(default_factory=dict)
    out_bytes: int = 0
    failed: int = 0
    spans: tuple = (0, 0)
    counters: dict = field(default_factory=dict)


def run_sweep(plan, order, reference, problems, tracer=None, full=False):
    """One pass over the corpus.  `reference` maps op keys to the
    digests outputs must match; failures go to `problems`."""
    gc.collect()
    sw = Sweep()
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.reset_counters()
        tracer.enabled = True
    t0 = perf_counter_ns()
    state = plan.prepare()
    sw.prep_ns = sw.wall_ns = perf_counter_ns() - t0
    for i in order:
        op = plan.ops[i]
        span = tracer.begin("op", i) if tracer else None
        t0 = perf_counter_ns()
        try:
            raw, error = op.run(state), None
        except Exception as exc:  # any failure of the program under test
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t0
        if tracer:
            tracer.end(span)
            tracer.enabled = False
        sw.wall_ns += dt
        sw.op_ns[i] = dt
        if error is None:
            try:
                digest, nbytes, found = op.settle(raw, full)
            except Exception as exc:
                digest, nbytes, found = None, 0, [
                    f"check raised {type(exc).__name__}: {exc}"]
        else:
            digest, nbytes, found = None, 0, [error]
        if tracer:
            tracer.enabled = True
        want = reference.get(op.key)
        if digest is not None and want is not None and digest != want:
            found = found + [f"output digest {digest}, expected {want}"]
        sw.digests[op.key] = digest
        sw.out_bytes += nbytes
        if found:
            sw.failed += 1
            problems.append({"op": op.key, "problems": found[:3]})
    if tracer:
        tracer.enabled = False
        sw.spans = (first_span, len(tracer.spans))
        sw.counters = dict(tracer.counters)
    return sw


def tail_value(times, beyond=TAIL_BEYOND):
    """The time with `beyond` operations above it."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - beyond - 1)]


def best_times(sweeps):
    """Each operation's best time over the sweeps, and the best
    preparation time.  Other tenants of a small shared machine slow
    whole seconds of a run by 20-40%; an operation's best of several
    sweeps is far steadier than any average over them."""
    ops = sweeps[0].op_ns
    return ([min(sw.op_ns[i] for sw in sweeps) for i in sorted(ops)],
            min(sw.prep_ns for sw in sweeps))


def sweep_wall(sweeps):
    """Wall time of a sweep with every operation at its best."""
    ops, prep = best_times(sweeps)
    return sum(ops) + prep


def sweep_order(plan, rng):
    """Operations in an order drawn from rng.  Operations of one group
    share per-sweep state (a model and its caches), so a group keeps
    its corpus order and only the groups are shuffled."""
    groups: dict = {}
    for i, op in enumerate(plan.ops):
        groups.setdefault(op.group or op.key, []).append(i)
    keys = list(groups)
    rng.shuffle(keys)
    return [i for key in keys for i in groups[key]]


def run_phase(plan, rng, seconds, reference, problems, tracer=None):
    """Measured sweeps until `seconds` have passed (at least one), each
    on the next CPU, so that every operation's best time draws on all
    CPUs the process may use."""
    sweeps = []
    start = perf_counter_ns()
    cycle = CpuCycle()
    try:
        while True:
            cycle.step()
            t0 = perf_counter_ns()
            sweeps.append(run_sweep(plan, sweep_order(plan, rng), reference,
                                    problems, tracer))
            took = perf_counter_ns() - t0
            if perf_counter_ns() - start + took / 2 >= seconds * 1e9:
                return sweeps
    finally:
        cycle.restore()


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(sweeps):
    """Every end-to-end metric but setup_s."""
    ops, prep = best_times(sweeps)
    wall = sum(ops) + prep
    return {
        "wall_s": wall / 1e9,
        "ops_per_s": len(ops) / (wall / 1e9),
        "op_ms_p50": statistics.median(ops) / 1e6,
        "op_ms_tail": tail_value(ops) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def span_summary(spans, lo):
    """Total time per span key, the self time of cli.main and of
    synthesize, children per span and span durations.  `spans` are the
    tracer's spans from index `lo` on."""
    dur = [s[4] - s[3] for s in spans]
    children: dict[int, list[int]] = {}
    for local, s in enumerate(spans):
        if s[1] >= 0:
            children.setdefault(s[1] - lo, []).append(local)
    total: dict[str, int] = {}
    for s, d in zip(spans, dur):
        total[s[0]] = total.get(s[0], 0) + d
    cli_self = replay = 0
    for local, s in enumerate(spans):
        kids = children.get(local, ())
        if s[0] == "cli.main":
            cli_self += dur[local] - sum(dur[k] for k in kids)
        elif s[0] == "distinguish.synthesize":
            replay += dur[local] - sum(
                dur[k] for k in kids
                if spans[k][0] in ("bisim.refine", "semantics.truth_set"))
    return total, cli_self, replay, children, dur


def layer_metrics(tracer, sweeps):
    """Per-layer figures of each traced sweep: times are medians over
    the sweeps, counters come from the first."""
    per_sweep = []
    for sw in sweeps:
        lo, hi = sw.spans
        total, cli_self, replay, _, _ = span_summary(tracer.spans[lo:hi], lo)
        values = {name: total.get(key, 0) / 1e9
                  for name, key in SPAN_METRICS.items()}
        values["cli.self_s"] = cli_self / 1e9
        values["distinguish.replay_s"] = replay / 1e9
        per_sweep.append(values)
    out = {name: statistics.median(v[name] for v in per_sweep)
           for name in per_sweep[0]}
    out.update(sweep_counters(sweeps[0]))
    c = sweeps[0].counters
    calls = c["semantics.truth_set_calls"]
    out["semantics.repeat_ratio"] = (c["semantics.repeat_calls"] / calls
                                     if calls else 0.0)
    return out


def sweep_counters(sw):
    """The deterministic counters of one traced sweep."""
    c = dict(sw.counters, **{"cli.out_bytes": sw.out_bytes})
    return {name: c[name] for name in DETERMINISTIC}


def design_shares(tracer, sw):
    """Shares of one traced sweep's wall time that the workload design
    predicts: oracle, refinement plus replay, evaluation, and the
    self time of cli/model/formula/genframe spans."""
    lo, hi = sw.spans
    spans = tracer.spans[lo:hi]
    total, _, replay, children, dur = span_summary(spans, lo)
    wall = sw.wall_ns or 1

    def outermost(keys):
        # time in spans of `keys` not nested inside another such span
        covered = 0
        for local, s in enumerate(spans):
            if s[0] not in keys:
                continue
            p = s[1] - lo
            while p >= 0 and spans[p][0] not in keys:
                p = spans[p][1] - lo
            if p < 0:
                covered += dur[local]
        return covered

    self_time = {}
    for local, s in enumerate(spans):
        layer = s[0].split(".")[0]
        own = dur[local] - sum(dur[k] for k in children.get(local, ()))
        self_time[layer] = self_time.get(layer, 0) + own
    return {
        "oracle": total.get("distinguish.oracle", 0) / wall,
        "refine_plus_replay": (total.get("bisim.refine", 0) + replay) / wall,
        "semantics_relations": outermost(("semantics.truth_set",
                                          "relations.compose")) / wall,
        "cli_model_formula_genframe_self": sum(
            self_time.get(layer, 0)
            for layer in ("cli", "model", "formula", "genframe")) / wall,
    }


# ---------------------------------------------------------------------------
# Run metadata


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": bool(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_expected(name):
    path = os.path.join(BENCH_DIR, "expected.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


# ---------------------------------------------------------------------------
# A whole run


def run(name, seed, seconds, trace, out_dir, workdir):
    """Run one workload; return (result line dict, full record)."""
    workload = WORKLOADS[name]
    plan, first_setup = set_up(workload, os.path.join(workdir, "run"))
    setup_times = [first_setup]
    setup_rss = peak_rss_mb()
    meta = metadata(workload, seed, seconds, trace)
    expected = load_expected(name)
    rng = random.Random(seed)
    problems: list = []

    tracer = None
    if trace:
        untraced = run_phase(plan, rng, seconds / 2, expected, problems)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(plan, rng, seconds / 2, expected, problems,
                               tracer)
        finally:
            tracer.uninstall()
        sweeps_run = untraced + traced
        layers = layer_metrics(tracer, traced)
        layers["trace.overhead_s"] = (sweep_wall(traced)
                                      - sweep_wall(untraced)) / 1e9
        repeat = all(sweep_counters(sw) == sweep_counters(traced[0])
                     for sw in traced)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        extra = {"counters_repeat": repeat,
                 "shares": design_shares(tracer, traced[0]),
                 "untraced_wall_s": sweep_wall(untraced) / 1e9,
                 "traced_sweeps": len(traced)}
    else:
        sweeps_run = run_phase(plan, rng, seconds, expected, problems)
        values = end_to_end(sweeps_run)
        extra = {"sweep_wall_s": [sw.wall_ns / 1e9 for sw in sweeps_run],
                 "tail_percentile": 100 * (1 - TAIL_BEYOND / len(plan.ops)),
                 "tail_samples": len(plan.ops),
                 "setup_peak_rss_mb": setup_rss}
        repeat = True
    checked = run_sweep(plan, sweep_order(plan, rng), expected, problems,
                        full=True)
    sweeps_run.append(checked)
    if not trace:
        setup_times += time_set_ups(workload, os.path.join(workdir, "timing"),
                                    SETUPS - 1)
        values["setup_s"] = statistics.median(setup_times)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    attempted = sum(len(sw.op_ns) for sw in sweeps_run)
    failed = sum(sw.failed for sw in sweeps_run)
    recorded = bool(expected)
    correct = failed == 0 and recorded and repeat
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(meta, **extra, result=result,
                  fail_ratio=failed / attempted,
                  ops_per_sweep=len(plan.ops),
                  sweeps=len(sweeps_run) - 1,
                  setup_times_s=setup_times,
                  digests_recorded=recorded,
                  problems=problems[:20])
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(bool(trace))}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for key, parent, op, start, end in tracer.spans:
                fh.write(json.dumps([key, parent, op, start, end]) + "\n")
    return result, record
