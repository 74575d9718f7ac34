"""Command line front end.

Every verb reads JSON models from files, prints one JSON object to
stdout (or --output), and keeps the byte stream deterministic: state
lists are sorted, and the bytes are exactly those of
json.dumps(obj, indent=2, sort_keys=True) + "\\n", that is sorted keys,
a two-space indent and ASCII only, with \\u escapes for the rest
(model._dumps writes them).  The long lists, bisim's removed and the
witnesses of equiv and hm-check, are written row by row: each row is
one % of a fixed template that model._row_template lays out, filled
with cells quoted once each (a state name, an atom, a formula's text),
so no dict is built per removal or witness.  Exit status 0 means the
verb ran; 1 means a domain error (bad model file, wrong flavor, failed
precondition), reported on stderr; argparse itself exits 2 on usage
errors.  hm-check is the exception worth knowing: it exits 0 only when
the Hennessy-Milner property held, 1 when it did not.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import re
import sys

from . import bisim as bisim_mod
from . import distinguish, genframe, sampling, semantics
from .errors import ToolError
from .formula import Fragment, parse, to_string, translate
from .model import (_CELL, FLAVORS, Model, _dumps, _quote, _row_template,
                    _Rows, build_example, dualize, load_model, model_to_dict,
                    quotient, read_json, strictify)

_EXAMPLE_NAME = re.compile(r"([a-z_]+)(?:\((\d+)\))?\Z")


# A text stream encodes all it is handed at once, so the text goes out
# this many characters at a time rather than held twice, as str and as
# bytes.
_SLICE = 1 << 20


def _emit(obj, output: str | None) -> None:
    text = _dumps(obj)
    with (open(output, "w", encoding="utf-8") if output
          else contextlib.nullcontext(sys.stdout)) as fh:
        for start in range(0, len(text), _SLICE):
            fh.write(text[start:start + _SLICE])


# Where the members of a list under a key of the output object start.
_ROW = "\n    "


def _removed(trace: bisim_mod.RefinementTrace) -> _Rows:
    """bisim's removed list, one row per row of the trace, with each
    place's name, each atom and each check's clause and side quoted
    once."""
    rows, (names, atoms, clauses) = trace._table()
    quoted, atoms = list(map(_quote, names)), list(map(_quote, atoms))
    pair = [_CELL, _CELL]
    atom_row = _row_template({"pair": pair, "stage": _CELL, "clause": "atoms",
                              "side": "", "transition": [_CELL]}, _ROW)
    checks = [(_row_template({"pair": pair, "stage": _CELL, "clause": clause,
                              "side": "left" if zig else "right",
                              "transition": pair}, _ROW), zig)
              for clause, zig in clauses]
    out = []
    for a, b, stage, k, t in zip(*[iter(rows)] * 5):
        if k < 0:
            out.append(atom_row % (quoted[a], quoted[b], stage, atoms[t]))
        else:
            row, zig = checks[k]
            out.append(row % (quoted[a], quoted[b], stage,
                              quoted[a if zig else b], quoted[t]))
    return _Rows(out, _ROW)


def _witnesses(witnesses, left: Model, right: Model) -> _Rows:
    """The witnesses list of equiv and hm-check, one row per witness,
    with each state name and each distinct formula's text quoted
    once."""
    quoted = {x: _quote(x) for x in left.states + right.states}
    texts: dict[int, str] = {}
    templates = {side: _row_template({"pair": [_CELL, _CELL],
                                      "formula": _CELL, "orientation": side,
                                      "stage": _CELL}, _ROW)
                 for side in ("left", "right")}
    out = []
    for w in witnesses:
        # keyed by id: a formula's __hash__ is a Python call, and the
        # witnesses keep every formula alive
        f = w.formula
        text = texts.get(id(f))
        if text is None:
            text = texts[id(f)] = _quote(to_string(f))
        x, x2 = w.pair
        out.append(templates[w.orientation]
                   % (text, quoted[x], quoted[x2], w.stage))
    return _Rows(out, _ROW)


def _fragment(args) -> Fragment:
    return Fragment(args.fragment, args.boxes, args.diamonds, args.tense)


def _load(path: str, args) -> Model:
    """Load a model file, reinterpreting it under --flavor if given.

    Reinterpretation keeps states, order, relations and valuation and
    only swaps the flavor, so the same frame can be read under the
    different modal semantics.  The new flavor's shape requirements
    still apply (an h model cannot store diamond relations, say)."""
    m = load_model(path)
    flavor = getattr(args, "flavor", None)
    if flavor is None or flavor == m.flavor:
        return m
    return Model._from_rows(m.states, m._index, m._leq_rows, m._box_rows,
                            m._dia_rows, m.valuation, flavor)


def _add_fragment_flags(sub) -> None:
    sub.add_argument("--fragment", required=True,
                     choices=("int", "intdual", "biint"),
                     help="arrow base of the language")
    sub.add_argument("--boxes", type=int, default=0, metavar="N",
                     help="number of box operators (default 0)")
    sub.add_argument("--diamonds", type=int, default=0, metavar="M",
                     help="number of diamond operators (default 0)")
    sub.add_argument("--tense", action="store_true",
                     help="include the backward operators <| and |>")


_SAMPLE_SIZE = 50
# A sampled formula's size grows exponentially with its depth: the
# draw pools hold more binary connectives than leaves.
_MAX_SAMPLE_DEPTH = 20


def _soundness_sample(left: Model, right: Model, frag: Fragment, pairs,
                      seed: int, depth: int) -> dict:
    """Spot-check the fixpoint: sampled fragment formulas must agree on
    every surviving pair.  A nonempty disagreement list means the
    clause set is unsound for these models, so it should stay empty."""
    rng = random.Random(seed)
    atoms = sorted(set(left.valuation) | set(right.valuation)) or ["p"]
    disagreements = []
    for _ in range(_SAMPLE_SIZE):
        f = sampling.random_formula(rng, frag, depth, tuple(atoms))
        on_left = semantics.truth_set(f, left)
        on_right = semantics.truth_set(f, right)
        for x, y in sorted(pairs):
            if (x in on_left) != (y in on_right):
                disagreements.append({"pair": [x, y], "formula": str(f)})
    return {"formulas": _SAMPLE_SIZE, "disagreements": disagreements}


def _load_algebra(source: str, m: Model) -> genframe.SetAlgebra:
    if source.lstrip().startswith("["):
        data = read_json("--algebra", source)
    else:
        data = read_json(source)
    return genframe.algebra_from_lists(data, m)


def _generators(source: str, m: Model) -> list[frozenset]:
    if source == "valuation":
        return [xs for _, xs in sorted(m.valuation.items())]
    data = read_json("--generators", source)
    if not (isinstance(data, list)
            and all(isinstance(entry, list)
                    and all(isinstance(x, str) for x in entry)
                    for entry in data)):
        raise ToolError("--generators must be a JSON list of state lists")
    return [frozenset(entry) for entry in data]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kripkit",
        description="Finite Kripke models for intuitionistic modal logics: "
                    "evaluation, bisimulations, distinguishing formulas.")
    verbs = top.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, model=False, left_right=False, fragment=False,
             formula=False, budget=False):
        sub = verbs.add_parser(name, help=help_text)
        if model:
            sub.add_argument("--model", required=True, help="model JSON file")
        if left_right:
            sub.add_argument("--left", required=True, help="model JSON file")
            sub.add_argument("--right", required=True, help="model JSON file")
        if model or left_right:
            sub.add_argument("--flavor", default=None, choices=FLAVORS,
                             help="reinterpret loaded models under this "
                                  "flavor (default: the file's flavor field)")
        if fragment:
            _add_fragment_flags(sub)
        if formula:
            sub.add_argument("--formula", required=True,
                             help="formula in concrete syntax")
        if budget:
            sub.add_argument("--budget", type=int, default=None, metavar="N",
                             help="cap on derived formula signatures, "
                                  "N >= 0 (default: saturate)")
        sub.add_argument("--output", default=None, metavar="PATH",
                         help="write the JSON result here instead of stdout")
        return sub

    verb("validate", "check frame conditions and report violations",
         model=True)
    e = verb("eval", "truth set of a formula", model=True, formula=True)
    e.add_argument("--ck-reflexive", action="store_true",
                   help="read C over the reflexive-transitive closure")
    b = verb("bisim", "greatest bisimulation between two models",
             left_right=True, fragment=True)
    b.add_argument("--seed", type=int, default=None, metavar="N",
                   help="with --depth: sample random fragment formulas and "
                        "check every fixpoint pair agrees on them")
    b.add_argument("--depth", type=int, default=None, metavar="N",
                   help="nesting depth cap for the --seed sample")
    verb("equiv", "bisimulation plus verified distinguishing formulas",
         left_right=True, fragment=True)
    verb("oracle", "formula-equivalence relation by saturation",
         left_right=True, fragment=True, budget=True)
    verb("hm-check", "confirm the Hennessy-Milner property on one pair",
         left_right=True, fragment=True, budget=True)
    verb("quotient", "collapse a model by its bisimilarity partition",
         model=True, fragment=True)
    verb("strictify", "absorb the order into the modal relations",
         model=True)
    verb("dualize", "mirror a model across the order", model=True)
    verb("translate", "order-dual of a formula", formula=True)
    c = verb("closure", "close generator sets into an algebra", model=True)
    c.add_argument("--generators", required=True,
                   help="JSON list of state lists, or the word 'valuation'")
    c.add_argument("--ops", default="", metavar="OPS",
                   help="comma separated: arrow, coarrow, boxbar_i, diabar_j")
    d = verb("descriptive-check", "recover the box relation from an algebra",
             model=True)
    d.add_argument("--algebra", required=True,
                   help="JSON file or inline JSON list of state lists")
    d.add_argument("--index", type=int, default=1, metavar="I",
                   help="which box relation to check (default 1)")
    x = verb("example", "emit a model from the built-in gallery")
    x.add_argument("--name", required=True,
                   help="gallery name, e.g. wedge or spines(2)")
    return top


def run(args) -> int:
    if args.verb == "validate":
        m = _load(args.model, args)
        report = m.validate()
        _emit({"ok": report.ok,
               "strictly_condensed": report.strictly_condensed,
               "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                              for v in report.violations]}, args.output)
        return 0

    if args.verb == "eval":
        m = _load(args.model, args)
        f = parse(args.formula)
        ts = semantics.truth_set(f, m, ck_reflexive=args.ck_reflexive)
        _emit({"truth_set": sorted(ts)}, args.output)
        return 0

    if args.verb in ("bisim", "equiv", "oracle", "hm-check"):
        left = _load(args.left, args)
        right = _load(args.right, args)
        frag = _fragment(args)
        if args.verb == "bisim":
            bisim_mod._check_counts(frag, left, right)
            conditions = bisim_mod.conditions_for(frag, left.flavor)
            # the clauses resolve before the refinement, so their errors
            # still come before a usage error in --seed or --depth
            bisim_mod._resolved(conditions, left, right)
            sample = args.seed is not None or args.depth is not None
            if sample:
                if args.seed is None or args.depth is None:
                    raise ToolError("--seed and --depth go together")
                if args.depth < 0:
                    raise ToolError(f"--depth must be >= 0, got {args.depth}")
                if args.depth > _MAX_SAMPLE_DEPTH:
                    raise ToolError(f"--depth must be <= {_MAX_SAMPLE_DEPTH}, "
                                    f"got {args.depth}")
            pairs, trace = bisim_mod.greatest_bisimulation(left, right,
                                                           conditions)
            out = {"pairs": sorted(pairs), "rounds": trace.rounds,
                   "removed": _removed(trace)}
            if sample:
                out["sample"] = _soundness_sample(left, right, frag, pairs,
                                                  args.seed, args.depth)
            _emit(out, args.output)
            return 0
        if args.verb == "equiv":
            pairs, witnesses = distinguish.synthesize(left, right, frag)
            _emit({"pairs": sorted(pairs),
                   "witnesses": _witnesses(witnesses, left, right)},
                  args.output)
            return 0
        if args.verb == "oracle":
            pairs, exact = distinguish.bounded_equivalence_oracle(
                left, right, frag, args.budget)
            _emit({"pairs": sorted(pairs), "exact": exact}, args.output)
            return 0
        report = distinguish.hennessy_milner_check(left, right, frag,
                                                   args.budget)
        _emit({"passed": report.passed,
               "fixpoint": sorted(report.fixpoint),
               "oracle": sorted(report.oracle),
               "oracle_exact": report.oracle_exact,
               "witnesses": _witnesses(report.witnesses, left, right),
               "problems": list(report.problems)}, args.output)
        return 0 if report.passed else 1

    if args.verb == "quotient":
        m = _load(args.model, args)
        frag = _fragment(args)
        bisim_mod._check_counts(frag, m)
        conditions = bisim_mod.conditions_for(frag, m.flavor)
        partition = bisim_mod.bisimilarity_partition(m, conditions)
        qm, mapping = quotient(m, partition, conditions=conditions)
        _emit({"model": model_to_dict(qm), "map": mapping}, args.output)
        return 0

    if args.verb == "strictify":
        _emit(model_to_dict(strictify(_load(args.model, args))), args.output)
        return 0

    if args.verb == "dualize":
        _emit(model_to_dict(dualize(_load(args.model, args))), args.output)
        return 0

    if args.verb == "translate":
        _emit({"formula": str(translate(parse(args.formula)))}, args.output)
        return 0

    if args.verb == "closure":
        m = _load(args.model, args)
        generators = _generators(args.generators, m)
        ops = [op for op in args.ops.split(",") if op]
        try:
            algebra = genframe.close_algebra(m, generators, ops)
        except ValueError as exc:  # an unknown --ops name
            raise ToolError(str(exc)) from None
        _emit({"algebra": algebra.to_lists()}, args.output)
        return 0

    if args.verb == "descriptive-check":
        m = _load(args.model, args)
        algebra = _load_algebra(args.algebra, m)
        ok, pair = genframe.descriptive_box_check(m, algebra, args.index)
        _emit({"ok": ok, "pair": list(pair) if pair else None}, args.output)
        return 0

    if args.verb == "example":
        match = _EXAMPLE_NAME.match(args.name.strip())
        if not match:
            raise ToolError(f"cannot read example name {args.name!r}")
        name, param = match.groups()
        params = (int(param),) if param is not None else ()
        _emit(model_to_dict(build_example(name, params)), args.output)
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
