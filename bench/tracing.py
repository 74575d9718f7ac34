"""Per-layer tracing from outside the package.

The tracer wraps public kripkit functions.  For each wrapped function
it rebinds the attribute of the defining module and every alias of the
same object in the other kripkit modules (``from .bisim import
greatest_bisimulation`` leaves such an alias in ``distinguish``), so
calls made inside the package are seen too.  Nothing private is named.

A wrapped call opens a span (key, parent span, op, start, end) unless a
span with the same key is already open, which is how only the outermost
of the recursive ``truth_set`` calls, or of ``compose_all`` and the
``compose`` calls it makes, is timed.  Calls are counted either way.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

PACKAGE = "kripkit"

# (module, attribute, span key).  Keys sharing a layer prefix add up to
# that layer's time; "Model.validate" is a method on the Model class.
WRAPPED = (
    ("formula", "parse", "formula.parse"),
    ("formula", "to_string", "formula.to_string"),
    ("model", "load_model", "model.load"),
    ("model", "model_from_dict", "model.load"),
    ("model", "Model.validate", "model.validate"),
    ("model", "strictify", "model.surgery"),
    ("model", "dualize", "model.surgery"),
    ("model", "quotient", "model.surgery"),
    ("relations", "compose", "relations.compose"),
    ("relations", "compose_all", "relations.compose"),
    ("semantics", "truth_set", "semantics.truth_set"),
    ("bisim", "greatest_bisimulation", "bisim.refine"),
    ("distinguish", "synthesize", "distinguish.synthesize"),
    ("distinguish", "verify_witnesses", "distinguish.verify"),
    ("distinguish", "bounded_equivalence_oracle", "distinguish.oracle"),
    ("genframe", "close_algebra", "genframe.close"),
    ("cli", "main", "cli.main"),
)

COUNTERS = ("bisim.rounds", "bisim.removals", "distinguish.witnesses",
            "distinguish.witness_chars_max", "distinguish.oracle_exact",
            "formula.nodes", "semantics.truth_set_calls",
            "semantics.repeat_calls", "relations.compose_calls")

_BINARY = ("left", "right")


def formula_nodes(f) -> int:
    """Node count of a formula tree, walked without recursion."""
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        for name in _BINARY:
            child = getattr(g, name, None)
            if child is not None:
                stack.append(child)
        body = getattr(g, "body", None)
        if body is not None:
            stack.append(body)
    return count


class Tracer:
    """Span and counter recorder for one run.  install() rebinds the
    package's functions, uninstall() puts the originals back; while
    `enabled` is false the wrappers only forward the call."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [key, parent, op, start_ns, end_ns]
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._seen_evals: set = set()
        self._live_models: list = []
        self._rebound: list[tuple[object, str, object]] = []
        self._to_string = None

    # -- recording ------------------------------------------------------

    def reset_counters(self) -> None:
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._seen_evals.clear()
        self._live_models.clear()

    def begin(self, key: str, op: int = -1) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if op < 0 and parent >= 0:
            op = self.spans[parent][2]
        self.spans.append([key, parent, op, perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter_ns()
        self.stack.pop()

    def _before(self, key: str, args, kwargs) -> None:
        c = self.counters
        if key == "semantics.truth_set":
            c["semantics.truth_set_calls"] += 1
            f, m = args[0], args[1]
            ck = args[2] if len(args) > 2 else kwargs.get("ck_reflexive",
                                                           False)
            # ids stay unique because the models are kept alive
            seen = (id(m), f, ck)
            if seen in self._seen_evals:
                c["semantics.repeat_calls"] += 1
            else:
                self._seen_evals.add(seen)
                self._live_models.append(m)

    def _after(self, name: str, result) -> None:
        c = self.counters
        if name == "compose":
            c["relations.compose_calls"] += 1
        elif name == "greatest_bisimulation":
            _, trace = result
            c["bisim.rounds"] += trace.rounds
            c["bisim.removals"] += len(trace.removals)
        elif name == "synthesize":
            _, witnesses = result
            c["distinguish.witnesses"] += len(witnesses)
            for w in witnesses:
                chars = len(self._to_string(w.formula))
                if chars > c["distinguish.witness_chars_max"]:
                    c["distinguish.witness_chars_max"] = chars
        elif name == "bounded_equivalence_oracle":
            if result[1]:
                c["distinguish.oracle_exact"] += 1
        elif name == "parse":
            c["formula.nodes"] += formula_nodes(result)

    def _wrap(self, orig, name: str, key: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            tracer._before(key, args, kwargs)
            if key in tracer.open:
                result = orig(*args, **kwargs)
            else:
                tracer.open.add(key)
                idx = tracer.begin(key)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.end(idx)
                    tracer.open.discard(key)
            tracer._after(name, result)
            return result

        return functools.wraps(orig)(traced)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [mod for modname, mod in sorted(sys.modules.items())
                   if mod is not None and (modname == PACKAGE or
                                           modname.startswith(PACKAGE + "."))]
        self._to_string = sys.modules[PACKAGE + ".formula"].to_string
        for modname, attr, key in WRAPPED:
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(orig, attr, key))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, attr, key)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, alias, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._rebound):
            setattr(owner, attr, orig)
        self._rebound.clear()
