"""Differential test of the refinement against a reference.

greatest_bisimulation, is_bisimulation and _unmatched below are the
naive refinement: every surviving pair is re-checked in every round,
over frozensets of state names.  kripkit's worklist kernel must return
the same fixpoint and the same RefinementTrace (every Removal field,
in the same order, and the same round count), the same violations
from is_bisimulation, and synthesize must return the same witnesses.
"""

import random

import pytest

from kripkit import Fragment, build_example
from kripkit import bisim, distinguish
from kripkit.errors import ToolError
from kripkit.bisim import (BisimViolation, ConditionSet, RefinementTrace,
                           Removal, conditions_for, resolved_tasks)
from kripkit.model import Model
from kripkit.sampling import random_model

_EMPTY = frozenset()


def _atom_disagreement(pair, m: Model, m2: Model, atoms) -> str | None:
    x, x2 = pair
    for a in atoms:
        if ((x in m.valuation.get(a, _EMPTY))
                != (x2 in m2.valuation.get(a, _EMPTY))):
            return a
    return None


def _unmatched(pair, task, holds):
    """First transition out of `pair` the other side cannot answer, as
    (side, src, tgt), or None if the clause is satisfied."""
    x, x2 = pair
    if task.direction == "zig":
        targets = task.right.get(x2, _EMPTY)
        for y in sorted(task.left.get(x, _EMPTY)):
            if not any(holds((y, y2)) for y2 in targets):
                return ("left", x, y)
    else:
        sources = task.left.get(x, _EMPTY)
        for y2 in sorted(task.right.get(x2, _EMPTY)):
            if not any(holds((y, y2)) for y in sources):
                return ("right", x2, y2)
    return None


def _all_atoms(m: Model, m2: Model) -> list[str]:
    return sorted(set(m.valuation) | set(m2.valuation))


def is_bisimulation(b, m: Model, m2: Model, conditions: ConditionSet):
    pairs = frozenset((str(a), str(c)) for a, c in b)
    tasks = resolved_tasks(conditions, m, m2)
    atoms = _all_atoms(m, m2)
    holds = pairs.__contains__
    out = []
    for pair in sorted(pairs):
        bad_atom = _atom_disagreement(pair, m, m2, atoms)
        if bad_atom is not None:
            out.append(BisimViolation(pair, "atoms", "", (bad_atom,)))
        for task in tasks:
            tr = _unmatched(pair, task, holds)
            if tr is not None:
                out.append(BisimViolation(pair, task.clause, tr[0], tr[1:]))
    return out


def greatest_bisimulation(m: Model, m2: Model, conditions: ConditionSet):
    tasks = resolved_tasks(conditions, m, m2)
    atoms = _all_atoms(m, m2)
    removals = []
    b = set()
    for x in m.states:
        for x2 in m2.states:
            bad_atom = _atom_disagreement((x, x2), m, m2, atoms)
            if bad_atom is None:
                b.add((x, x2))
            else:
                removals.append(Removal((x, x2), 0, "atoms", "", (bad_atom,)))
    stage = 0
    while True:
        stage += 1
        frozen = frozenset(b)
        holds = frozen.__contains__
        doomed = []
        for pair in sorted(frozen):
            for task in tasks:
                tr = _unmatched(pair, task, holds)
                if tr is not None:
                    doomed.append(Removal(pair, stage, task.clause,
                                          tr[0], tr[1:]))
                    break
        if not doomed:
            break
        for r in doomed:
            b.discard(r.pair)
        removals.extend(doomed)
    return frozenset(b), RefinementTrace(tuple(removals), stage - 1)


def _outcome(fn, *args):
    """A call's result, or the type and text of the ToolError it
    raised, so that refusals are compared too."""
    try:
        return ("ok", fn(*args))
    except ToolError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_reference(m, m2, frag, monkeypatch, rng):
    conditions = conditions_for(frag, m.flavor)
    want = greatest_bisimulation(m, m2, conditions)
    got = bisim.greatest_bisimulation(m, m2, conditions)
    assert got[0] == want[0]
    assert got[1] == want[1]  # every Removal field, in order, and rounds

    every = [(x, x2) for x in m.states for x2 in m2.states]
    candidate = [p for p in every if rng.random() < 0.6]
    for b in (got[0], candidate):
        assert (bisim.is_bisimulation(b, m, m2, conditions)
                == is_bisimulation(b, m, m2, conditions))

    got_synth = _outcome(distinguish.synthesize, m, m2, frag)
    with monkeypatch.context() as patch:
        patch.setattr(distinguish, "greatest_bisimulation",
                      greatest_bisimulation)
        want_synth = _outcome(distinguish.synthesize, m, m2, frag)
    assert got_synth == want_synth


ROWS = [
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("standard", Fragment("int", 2, 0), dict(n_boxes=2)),
    ("standard", Fragment("intdual", 0, 2), dict(n_boxes=0, n_diamonds=2)),
    ("tense", Fragment("biint", 1, 1, True), dict()),
    ("h", Fragment("biint", 1, 1, True), dict()),
    ("h", Fragment("biint", 0, 0), dict()),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
    ("fs", Fragment("int", 1, 1), dict()),
    ("gpt", Fragment("biint", 1, 1, True), dict()),
    ("gpt", Fragment("intdual", 0, 1), dict()),
]

PAIRS_PER_ROW = 64


@pytest.mark.parametrize("row", ROWS,
                         ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_refinement_matches_reference_on_random_pairs(row, monkeypatch):
    flavor, frag, kw = row
    for i in range(PAIRS_PER_ROW):
        rng = random.Random(70_000 + i)
        m = random_model(rng, flavor, n_states=1 + i % 7,
                         strict=i % 4 != 3, **kw)
        if i % 5 == 0:
            m2 = m
        else:
            m2 = random_model(rng, flavor, n_states=1 + (3 * i) % 7,
                              strict=i % 4 != 1, **kw)
        assert_same_as_reference(m, m2, frag, monkeypatch, rng)


GALLERY = (
    [("wedge", (), "wedge_strict", (), Fragment("biint", 1, 0))]
    + [("spines", (k,), "spines", (k + 1,), Fragment("int", 1, 0))
       for k in range(1, 7)]
    + [("porcupine", (n,), "porcupine_trimmed", (n,), Fragment("biint", 0, 0))
       for n in range(1, 5)])


@pytest.mark.parametrize("pair", GALLERY,
                         ids=[f"{p[0]}{p[1]}-{p[2]}{p[3]}" for p in GALLERY])
def test_refinement_matches_reference_on_the_gallery(pair, monkeypatch):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    rng = random.Random(71_000)
    assert_same_as_reference(m, m2, frag, monkeypatch, rng)
    assert_same_as_reference(m2, m, frag, monkeypatch, rng)
