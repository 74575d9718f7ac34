"""Differential test of the refinement against two references.

greatest_bisimulation, is_bisimulation and _unmatched below are the
naive refinement: every surviving pair is re-checked in every round,
over frozensets of state names.  kripkit's class refinement of the
disjoint union must return the same fixpoint and the same
RefinementTrace (every Removal field, in the same order, and the same
round count), the same violations from is_bisimulation, and
synthesize must return the same witnesses.  bisimilarity_partition
must return the blocks of the naive fixpoint of a model against
itself.

Task and resolved_tasks are verbatim copies of the clause maps
kripkit.bisim used to offer: each clause of a set as successor maps
of frozensets by name.  The references here, in test_bisim and in
test_replay_reference decode clauses with them.

WorklistKernel and worklist_greatest_bisimulation keep verbatim, but
for their names, the refinement the class refinement replaced: round 1
judged every atom-agreeing pair, and each later round re-checked the
surviving predecessors of the last round's removals.  It is fast
enough to compare on inputs too large for the naive loop.
"""

import dataclasses
import random
from typing import Mapping

import pytest

from kripkit import Fragment, build_example
from kripkit import bisim, distinguish, semantics
from kripkit import relations as rel
from kripkit.errors import ToolError
from kripkit.bisim import (BisimViolation, ConditionSet, RefinementTrace,
                           Removal, _resolved, conditions_for)
from kripkit.model import Model, Partition, _map_view
from kripkit.sampling import random_model

_EMPTY = frozenset()


@dataclasses.dataclass(frozen=True)
class Task:
    """One resolved clause: a named direction over successor maps, and
    the connective shape of its witnesses ("imp", "sub", "box", "dia",
    "tdia" or "tbox") with its modal index (None for imp and sub)."""

    clause: str
    direction: str  # "zig" or "zag"
    left: Mapping[str, frozenset]
    right: Mapping[str, frozenset]
    shape: str
    index: int | None


def resolved_tasks(conditions: ConditionSet, m: Model, m2: Model) -> list[Task]:
    """Instantiate the clause set against a concrete pair of models,
    in the fixed clause order."""
    return [Task(clause, direction,
                 _map_view(m.states, semantics._succ_masks(m, shape, index)),
                 _map_view(m2.states, semantics._succ_masks(m2, shape, index)),
                 shape, index)
            for clause, direction, shape, index
            in _resolved(conditions, m, m2)]


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


# ---------------------------------------------------------------------------
# The worklist refinement


class WorklistKernel:
    """The resolved clauses of one pair of models compiled to bit
    masks, with the relation under refinement held the same way.

    semantics numbers states in sorted name order, so walking a mask's
    bits from low to high visits states in the order `sorted` gives.
    rows[i] holds the right states paired with left state i, cols[j]
    the left states paired with right state j.  Each check is (clause,
    zig, own, other, table): a zig reads left successors (own, by i)
    against right ones (other, by j) through rows, a zag the other way
    round through cols.  A check is compiled the first time a pair
    reaches it, since on small models most pairs fail an early clause;
    its successor masks are the table's entries for its shape.
    """

    def __init__(self, clauses: list[tuple], m: Model, m2: Model):
        self.models = (m, m2)
        self.states, self.states2 = m.states, m2.states
        self.rows = [0] * len(m.states)
        self.cols = [0] * len(m2.states)
        self.clauses = clauses
        self.checks: list[tuple | None] = [None] * len(clauses)
        self.atoms = sorted(set(m.valuation) | set(m2.valuation))
        self.sig = _worklist_atom_signatures(m, self.atoms)
        self.sig2 = _worklist_atom_signatures(m2, self.atoms)

    def atom_disagreement(self, i: int, j: int) -> str | None:
        """The first atom, in sorted order, that holds at exactly one of
        left state i and right state j."""
        differ = self.sig[i] ^ self.sig2[j]
        if not differ:
            return None
        return self.atoms[(differ & -differ).bit_length() - 1]

    def check(self, k: int) -> tuple:
        """The compiled form of clauses[k]."""
        clause, direction, shape, index = self.clauses[k]
        left, right = (semantics._succ_masks(model, shape, index)
                       for model in self.models)
        if direction == "zig":
            compiled = (clause, True, left, right, self.rows)
        else:
            compiled = (clause, False, right, left, self.cols)
        self.checks[k] = compiled
        return compiled

    def first_failure(self, i: int, j: int, start: int = 0):
        """The first clause, from checks[start] on, that pair (i, j)
        fails against the current rows and cols, as (k, clause, side,
        transition) naming the first transition the other side cannot
        answer; None if they all hold."""
        checks = self.checks
        for k in range(start, len(checks)):
            clause, zig, own, other, table = checks[k] or self.check(k)
            if zig:
                succ, cover = own[i], other[j]
            else:
                succ, cover = own[j], other[i]
            while succ:
                low = succ & -succ
                y = low.bit_length() - 1
                if not table[y] & cover:
                    if zig:
                        return (k, clause, "left",
                                (self.states[i], self.states[y]))
                    return (k, clause, "right",
                            (self.states2[j], self.states2[y]))
                succ ^= low
        return None

    def predecessors(self) -> list[tuple[list[int], list[int]]]:
        """The predecessor masks, (left, right), of each distinct table
        entry the clauses read: the successor masks of its converse."""
        entries = dict.fromkeys((semantics._CONVERSE[shape], index)
                                for *_, shape, index in self.clauses)
        return [tuple(semantics._succ_masks(model, *entry)
                      for model in self.models) for entry in entries]


def _worklist_atom_signatures(m: Model, atoms: list[str]) -> list[int]:
    """Per state, bit k set when atoms[k] holds there."""
    sig = dict.fromkeys(m.states, 0)
    for k, a in enumerate(atoms):
        bit = 1 << k
        for x in m.valuation.get(a, _EMPTY):
            sig[x] |= bit
    return list(sig.values())


def worklist_greatest_bisimulation(m: Model, m2: Model,
                                   conditions: ConditionSet):
    kernel = WorklistKernel(_resolved(conditions, m, m2), m, m2)
    states, states2 = m.states, m2.states
    rows, cols = kernel.rows, kernel.cols
    first_failure = kernel.first_failure
    removals: list[Removal] = []
    for i, x in enumerate(states):
        for j, x2 in enumerate(states2):
            bad_atom = kernel.atom_disagreement(i, j)
            if bad_atom is None:
                rows[i] |= 1 << j
                cols[j] |= 1 << i
            else:
                removals.append(Removal((x, x2), 0, "atoms", "", (bad_atom,)))
    candidates = list(rows)
    preds = None  # built once some pair outlives a round with removals
    stage = 0
    while True:
        stage += 1
        doomed: list[tuple[int, int, Removal]] = []
        for i, row in enumerate(candidates):
            while row:
                low = row & -row
                row ^= low
                j = low.bit_length() - 1
                failure = first_failure(i, j)
                if failure is not None:
                    _, clause, side, transition = failure
                    doomed.append((i, j, Removal((states[i], states2[j]),
                                                 stage, clause, side,
                                                 transition)))
        if not doomed:
            break
        gone: dict[int, int] = {}
        for i, j, r in doomed:
            rows[i] &= ~(1 << j)
            cols[j] &= ~(1 << i)
            gone[i] = gone.get(i, 0) | 1 << j
            removals.append(r)
        candidates = [0] * len(states)
        if preds is None and any(rows):
            preds = kernel.predecessors()
        for pre, pre2 in preds or ():
            for y, ys2 in gone.items():
                hit = 0
                while ys2:
                    low = ys2 & -ys2
                    ys2 ^= low
                    hit |= pre2[low.bit_length() - 1]
                xs = pre[y] if hit else 0
                while xs:
                    low = xs & -xs
                    xs ^= low
                    candidates[low.bit_length() - 1] |= hit
        candidates = [c & row for c, row in zip(candidates, rows)]
    pairs = frozenset((states[i], states2[j])
                      for i, row in enumerate(rows)
                      for j in rel._bits(row))
    return pairs, RefinementTrace(tuple(removals), stage - 1)


def assert_same_refinement(m, m2, conditions, *references):
    got = bisim.greatest_bisimulation(m, m2, conditions)
    for reference in references:
        want = reference(m, m2, conditions)
        assert got[0] == want[0]
        assert got[1] == want[1]


def clause_sets(frag: Fragment, flavor: str) -> list[ConditionSet]:
    """The fragment's clause set, and the same set without its order
    clauses.  The order is reflexive, so with order clauses a state is
    its own successor and its signature names its class anyway; the
    modal clauses alone test that the refinement keeps a state's old
    class in its signature."""
    conditions = conditions_for(frag, flavor)
    return [conditions, dataclasses.replace(
        conditions, order_forth=False, order_back=False, dual_forth=False,
        dual_back=False)]


# The pairs of the benchmark's spines-equiv workload.
CORPUS = (
    [("spines", (k,), "spines", (k + 1,), Fragment("int", 1, 0))
     for k in range(2, 10)]
    + [("porcupine", (n,), "porcupine_trimmed", (n,), Fragment("biint", 0, 0))
       for n in range(1, 7)])


@pytest.mark.parametrize("pair", CORPUS,
                         ids=[f"{p[0]}{p[1]}-{p[2]}{p[3]}" for p in CORPUS])
def test_refinement_matches_references_on_the_benchmark_corpus(pair):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    for left, right in ((m, m2), (m2, m)):
        assert_same_refinement(left, right, conditions_for(frag, m.flavor),
                               greatest_bisimulation,
                               worklist_greatest_bisimulation)


def test_refinement_matches_worklist_on_spines20():
    m, m2 = build_example("spines", (20,)), build_example("spines", (21,))
    conditions = conditions_for(Fragment("int", 1, 0), m.flavor)
    for left, right in ((m, m2), (m2, m)):
        assert_same_refinement(left, right, conditions,
                               worklist_greatest_bisimulation)


def _interleaved_copy(m: Model, rng: random.Random) -> Model:
    """m with its states renamed: each new name is an old one with a
    prime, so the two sides' sorted orders interleave, and the old
    names are handed out shuffled, so the copy numbers the image of a
    state differently from the state itself."""
    names = list(m.states)
    rng.shuffle(names)
    rename = {x: f"{y}'" for x, y in zip(m.states, names)}

    def pairs(r):
        return {(rename[a], rename[b]) for a, b in r}

    return Model(rename.values(), pairs(m.leq),
                 boxes=[pairs(r) for r in m.boxes],
                 diamonds=[pairs(s) for s in m.diamonds],
                 valuation={a: {rename[x] for x in xs}
                            for a, xs in m.valuation.items()},
                 flavor=m.flavor)


LARGER_PAIRS_PER_ROW = 12


@pytest.mark.parametrize("row", ROWS,
                         ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_refinement_matches_references_on_larger_random_pairs(row):
    flavor, frag, kw = row
    for i in range(LARGER_PAIRS_PER_ROW):
        rng = random.Random(72_000 + i)
        m = random_model(rng, flavor, n_states=8 + (5 * i) % 13,
                         strict=i % 4 != 3, **kw)
        if i % 3 == 0:
            m2 = m
        elif i % 3 == 1:
            m2 = _interleaved_copy(m, rng)
        else:
            m2 = random_model(rng, flavor, n_states=8 + (7 * i) % 13,
                              strict=i % 4 != 1, **kw)
        for conditions in clause_sets(frag, flavor):
            assert_same_refinement(m, m2, conditions, greatest_bisimulation,
                                   worklist_greatest_bisimulation)


def naive_partition(m: Model, conditions: ConditionSet) -> Partition:
    b, _ = greatest_bisimulation(m, m, conditions)
    return Partition.from_blocks({frozenset(y for x2, y in b if x2 == x)
                                  for x in m.states})


@pytest.mark.parametrize("row", ROWS,
                         ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_bisimilarity_partition_matches_reference(row):
    flavor, frag, kw = row
    for i in range(LARGER_PAIRS_PER_ROW):
        rng = random.Random(73_000 + i)
        m = random_model(rng, flavor, n_states=8 + (5 * i) % 13,
                         strict=i % 4 != 3, **kw)
        for conditions in clause_sets(frag, flavor):
            assert (bisim.bisimilarity_partition(m, conditions)
                    == naive_partition(m, conditions))


@pytest.mark.parametrize("example", [
    ("spines", (6,), Fragment("int", 1, 0)),
    ("porcupine", (4,), Fragment("biint", 0, 0)),
    ("omega_chain", (5,), Fragment("int", 0, 0)),
    ("wedge", (), Fragment("biint", 1, 0))], ids=str)
def test_bisimilarity_partition_matches_reference_on_the_gallery(example):
    name, params, frag = example
    m = build_example(name, params)
    for conditions in clause_sets(frag, m.flavor):
        assert (bisim.bisimilarity_partition(m, conditions)
                == naive_partition(m, conditions))
