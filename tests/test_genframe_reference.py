"""Differential tests of genframe against references.

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

is_general_model and descriptive_box_check below are the versions the
definable preorder and the box masks replace, kept verbatim: the first
tests closure pair by pair, the second reads the box relation through
_successors, the table's decoded successor maps, kept here as a plain
decoder since nothing else reads them.  On every model, family and
fragment below both versions must give the same value, or raise the
same error, type and text.  Families with a state outside the model
are left out: the pairwise version answers False if the empty set or
the carrier is missing and otherwise fails with a bare KeyError, while
is_general_model raises ModelFormatError before any other test.
"""

import itertools
import random
from dataclasses import replace
from typing import Iterable, Sequence

import pytest

import test_relations_reference as ref
from kripkit import build_example, semantics
from kripkit.errors import ModelFormatError, PreconditionError, ToolError
from kripkit.formula import Box, Fragment
from kripkit.genframe import (SetAlgebra, _canon_key, close_algebra,
                              descriptive_box_check, is_general_model)
from kripkit.model import Model, _map_view
from kripkit.sampling import random_model, random_relation, random_upset

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


def _successors(m: Model, key, index=None) -> dict[str, frozenset]:
    """Table entry (key, index) decoded to a successor map, total on
    m's states."""
    return _map_view(m.states, semantics._succ_masks(m, key, index))


def reference_is_general_model(m: Model, algebra: SetAlgebra,
                               frag: Fragment) -> bool:
    """Whether the family supports the fragment on this model: it must
    hold the empty set, the carrier, and every valuation set; contain
    only upsets; and be closed under intersection, union, and the
    fragment's connectives (arrow for int bases, coarrow for dual
    bases, one box or diamond operator per modality)."""
    if frozenset() not in algebra or m.state_set not in algebra:
        return False
    for a in algebra:
        if not ref.is_upset(m.leq, a):
            return False
    for xs in m.valuation.values():
        if xs not in algebra:
            return False
    kernel = semantics._Kernel([m])
    masks = {semantics._mask(m, a) for a in algebra}
    unary, arrows = [], []
    for key, index in semantics._connectives(replace(frag, tense=False)):
        op = kernel.connective(key, index)
        if index is not None and op(0) not in masks:
            return False  # before an operator further on can fail
        (arrows if index is None else unary).append(op)
    for a in masks:
        if any(op(a) not in masks for op in unary):
            return False
        for b in masks:
            if (a & b) not in masks or (a | b) not in masks:
                return False
            if any(op(a & ~b) not in masks for op in arrows):
                return False
    return True


def reference_descriptive_box_check(m: Model, algebra: SetAlgebra,
                                    index: int = 1):
    """Can the box relation be recovered from the algebra?  Compares R
    against the algebraically induced relation

        x R_A y  iff  for all a in the family: x in box(a) implies y in a

    R is always included in R_A, so the check fails exactly when some
    pair is induced but absent; the first such pair (lexicographically)
    is returned as (False, pair).  Success is (True, None)."""
    succ = _successors(m, Box, index)
    box_of = {a: semantics.semantic_operator(f"boxbar_{index}", m, a)
              for a in algebra}
    for x in m.states:
        reachable = succ[x]
        for y in m.states:
            if y in reachable:
                continue
            if all(y in a for a, boxed in box_of.items() if x in boxed):
                return (False, (x, y))
    return (True, None)


def _answer(fn, *args):
    """A call's value, or the type and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except (ToolError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


# every base with relation counts from none to more than any model
# below stores, so each flavor meets connectives it cannot interpret
FRAGMENTS = [Fragment(base, boxes, dias)
             for base in ("int", "intdual", "biint")
             for boxes, dias in ((0, 0), (1, 0), (0, 1), (1, 1), (3, 2))]
FRAGMENTS.append(Fragment("biint", 1, 1, tense=True))


def families(m: Model, generators, ops, rng: random.Random):
    """The closure of the generators under ops, that closure with one
    member dropped, with a non-upset of the carrier added, and with an
    upset outside it added; none if the closure itself raises."""
    try:
        closed = close_algebra(m, generators, ops).sets
    except PreconditionError:
        return []
    dropped = rng.choice(closed)
    out = [closed, tuple(a for a in closed if a != dropped)]
    crooked = [a for r in range(1, len(m.states))
               for a in map(frozenset, itertools.combinations(m.states, r))
               if not ref.is_upset(m.leq, a)]
    if crooked:
        out.append(closed + (rng.choice(crooked),))
    extra = [u for u in (random_upset(rng, m.leq, m.states)
                         for _ in range(8)) if u not in closed]
    if extra:
        out.append(closed + (extra[0],))
    return [SetAlgebra(family) for family in out]


def assert_checks_match_reference(m: Model, rng: random.Random,
                                  seen: set):
    """Both checks against their references on m's families closed
    from its valuation and one random upset, with no operator and with
    every operator m interprets.  Adds each outcome's kind to seen."""
    generators = [xs for _, xs in sorted(m.valuation.items())]
    generators.append(random_upset(rng, m.leq, m.states))
    for ops in ([], interpreted_ops(m)):
        for alg in families(m, generators, ops, rng):
            for frag in FRAGMENTS:
                want = _answer(reference_is_general_model, m, alg, frag)
                assert _answer(is_general_model, m, alg, frag) == want, \
                    (m, alg.to_lists(), frag)
                seen.add(want if want[0] == "ok" else want[0])
            for index in range(4):
                want = _answer(reference_descriptive_box_check, m, alg,
                               index)
                assert _answer(descriptive_box_check, m, alg, index) == \
                    want, (m, alg.to_lists(), index)
                seen.add(("box", want[0]))


def raw_model(rng: random.Random, flavor: str, n_boxes: int = 1,
              n_diamonds: int = 0) -> Model:
    """A model built with the raw constructor: its order need not be a
    preorder, its valuation need not be upward closed, and its stored
    relations need not absorb the order."""
    states = [f"s{i}" for i in range(3 + rng.randrange(2))]
    subset = lambda: {x for x in states if rng.random() < 0.4}  # noqa: E731
    return Model(states, random_relation(rng, states, 0.4),
                 [random_relation(rng, states) for _ in range(n_boxes)],
                 [random_relation(rng, states) for _ in range(n_diamonds)],
                 {"p": subset(), "q": subset()}, flavor)


SHAPES = {"standard": (2, 1), "fs": (1, 0), "gpt": (1, 1), "tense": (1, 1),
          "h": (1, 0), "ek": (2, 0)}


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_general_model_checks_match_reference_on_random_models(row):
    flavor, kw = row
    seen = set()
    for i in range(8):
        rng = random.Random(81_000 + i)
        m = random_model(rng, flavor, n_states=3 + i % 3,
                         strict=i % 3 != 2, **kw)
        assert_checks_match_reference(m, rng, seen)
        assert_checks_match_reference(
            raw_model(rng, flavor, *SHAPES[flavor]), rng, seen)
    # every outcome of both checks came up
    assert {("ok", True), ("ok", False), "FlavorError", ("box", "ok"),
            ("box", "FlavorError"), ("box", "PreconditionError")} <= seen


@pytest.mark.parametrize("example", GALLERY,
                         ids=[f"{name}{params}" for name, params in GALLERY])
def test_general_model_checks_match_reference_on_the_gallery(example):
    assert_checks_match_reference(build_example(*example),
                                  random.Random(82_000), set())
