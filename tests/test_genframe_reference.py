"""Differential test of close_algebra against a reference.

close_algebra below is the round loop it replaces, kept verbatim: each
round combines every pair of members through semantic_operator, until
a round adds nothing.  _operator is the name parser that loop split
its operators with, cut down to the arity it read.  kripkit's
close_algebra must return the same family on every input and raise
the same error, type and text, on every bad one.

One difference is allowed and left out here: on a model that breaks
its frame conditions an operator can turn upsets into a set that is
not one.  Both versions then raise PreconditionError, but the round
loop names the first such set in canonical order among those of the
earliest round, and close_algebra names the first one it derives.
"""

import itertools
import random
from typing import Iterable, Sequence

import pytest

from kripkit import build_example, semantics
from kripkit.errors import ModelFormatError, ToolError
from kripkit.genframe import SetAlgebra, _canon_key, close_algebra
from kripkit.model import Model
from kripkit.sampling import random_model, random_upset

_BARS = ("boxbar", "diabar")


def _operator(kind: str):
    if kind == "arrow":
        return 2, None
    if kind == "coarrow":
        return 2, None
    name, _, suffix = kind.rpartition("_")
    if name in _BARS and suffix.isdigit() and int(suffix) >= 1:
        return 1, None
    raise ValueError(f"unknown semantic operator {kind!r}")


def _by_arity(ops: Iterable[str]) -> tuple[list[str], list[str]]:
    """Split operator names into unary and binary ones; a malformed
    name raises ValueError."""
    split: tuple[list[str], list[str]] = ([], [])
    for op in ops:
        arity, _ = _operator(op)
        split[arity - 1].append(op)
    return split


def reference_close_algebra(m: Model, generators: Iterable[Iterable[str]],
                            ops: Sequence[str] = ()) -> SetAlgebra:
    """Close a family of generators under intersection, union, and the
    named operators ("arrow", "coarrow", "boxbar_i", "diabar_j").  The
    empty set and the carrier are always thrown in.  Terminates
    because there are only finitely many state sets."""
    unary_ops, binary_ops = _by_arity(ops)
    family: set[frozenset] = {frozenset(), m.state_set}
    for g in generators:
        g = frozenset(g)
        unknown = g - m.state_set
        if unknown:
            raise ModelFormatError(
                f"generator mentions unknown state {sorted(unknown)[0]!r}")
        family.add(g)
    while True:
        new: set[frozenset] = set()
        members = sorted(family, key=_canon_key)
        for a in members:
            for op in unary_ops:
                new.add(semantics.semantic_operator(op, m, a))
            for b in members:
                new.add(a & b)
                new.add(a | b)
                for op in binary_ops:
                    new.add(semantics.semantic_operator(op, m, a, b))
        new -= family
        if not new:
            return SetAlgebra(family)
        family |= new


def _outcome(fn, *args):
    """A call's family, or the type and text of what it raised."""
    try:
        return ("ok", fn(*args).to_lists())
    except (ToolError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_reference(m, generators, ops):
    want = _outcome(reference_close_algebra, m, generators, ops)
    assert _outcome(close_algebra, m, generators, ops) == want, (m, ops)
    return want


def interpreted_ops(m: Model) -> list[str]:
    """Every operator name the model can interpret."""
    bars = len(m.boxes) if m.flavor in ("standard", "ek") else 1
    dias = {"standard": len(m.diamonds), "ek": 0}.get(m.flavor, 1)
    return (["arrow", "coarrow"]
            + [f"boxbar_{i}" for i in range(1, bars + 1)]
            + [f"diabar_{j}" for j in range(1, dias + 1)])


def assert_every_op_subset(m, generators):
    ops = interpreted_ops(m)
    for r in range(len(ops) + 1):
        for subset in itertools.combinations(ops, r):
            want = assert_same_as_reference(m, generators, list(subset))
            assert want[0] == "ok", (m, subset, want)


ROWS = [
    ("standard", dict(n_boxes=2, n_diamonds=1)),
    ("fs", dict()),
    ("gpt", dict()),
    ("tense", dict()),
    ("h", dict()),
    ("ek", dict(n_boxes=2)),
]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_close_algebra_matches_reference_on_random_models(row):
    flavor, kw = row
    for i in range(10):
        rng = random.Random(80_000 + i)
        m = random_model(rng, flavor, n_states=3 + i % 3,
                         strict=i % 3 != 2, **kw)
        generators = [xs for _, xs in sorted(m.valuation.items())]
        generators.append(random_upset(rng, m.leq, m.states))
        assert_every_op_subset(m, generators)


GALLERY = [("wedge", ()), ("wedge_strict", ()), ("spines", (2,)),
           ("porcupine", (1,)), ("porcupine_trimmed", (2,)),
           ("omega_chain", (3,))]


@pytest.mark.parametrize("example", GALLERY,
                         ids=[f"{name}{params}" for name, params in GALLERY])
def test_close_algebra_matches_reference_on_the_gallery(example):
    m = build_example(*example)
    assert_every_op_subset(m, [xs for _, xs in sorted(m.valuation.items())])


WEDGE = build_example("wedge")
EK = random_model(random.Random(3), "ek", n_states=3, n_boxes=2)
# x ≤ y, and the box relation steps from y down to x: box({y}) = {x},
# which is not an upset, so the closure derives a non-upset.
INCOHERENT = Model.make(["x", "y"], [("x", "y")], boxes=[{("y", "x")}])

FAILURES = [
    # unknown operator names, before anything else is looked at
    (WEDGE, [{"nope"}], ["boxbar_9", "squiggle"]),
    (WEDGE, [], ["boxbar_"]),
    (WEDGE, [], ["boxbar_0"]),
    (WEDGE, [], ["diabar_x"]),
    # an unknown state, before any operator is interpreted
    (WEDGE, [{"y", "nope"}], ["boxbar_9"]),
    (WEDGE, [{"nope"}], []),
    # an index or an operator the model cannot interpret
    (WEDGE, [{"y"}], ["arrow", "boxbar_2", "boxbar_3"]),
    (WEDGE, [], ["diabar_2"]),
    (EK, [], ["boxbar_3"]),
    (EK, [], ["coarrow", "diabar_1"]),
    # non-upset generators: the first in canonical order is named
    (WEDGE, [{"y"}, {"x", "y"}], ["arrow"]),
    (WEDGE, [{"x", "y"}, {"y"}], ["boxbar_1"]),
    (WEDGE, [{"y"}], ["coarrow", "boxbar_1"]),
    # a non-upset operator result on a model breaking its conditions,
    # where only one set can be named
    (INCOHERENT, [{"y"}], ["boxbar_1"]),
]


@pytest.mark.parametrize("case", range(len(FAILURES)))
def test_close_algebra_raises_what_the_reference_raises(case):
    m, generators, ops = FAILURES[case]
    kind, _ = assert_same_as_reference(m, generators, ops)
    assert kind != "ok"


def test_non_upset_generators_pass_without_ops():
    # with no operator there is no upset check, in either version
    kind, family = assert_same_as_reference(WEDGE, [{"y"}, {"x"}], [])
    assert kind == "ok" and ["y"] in family and ["x", "y"] in family
