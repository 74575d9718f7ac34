"""Bisimulations between ordered Kripke models.

Every clause is an atom-agreement check or a matching condition over
one relation, run in one direction:

    zig: x B x' and x T y   demand some y' with x' T' y' and y B y'
    zag: x B x' and x' T' y' demand some y with x T y and y B y'

The clause vocabulary, in the fixed order used everywhere:

    atoms        same atoms hold at both states (stage 0 only)
    order_forth  zig over ≤        order_back  zag over ≤
    dual_forth   zig over ≥        dual_back   zag over ≥
    box{i}_zig / box{i}_zag        over stored box relation i
    dia{j}_zig / dia{j}_zag        over stored diamond relation j
    tdia{i}_zig / tdia{i}_zag      over the converse of box relation i
    tbox{j}_zig / tbox{j}_zag      over the converse of diamond relation j

Modal clauses always run over the stored relations, never the derived
ones used by evaluation; on strictly condensed models the two agree,
which is why witness synthesis insists on strict condensation.

conditions_for picks the clause set matching a syntactic fragment and
a model flavor.  greatest_bisimulation refines the atom-agreeing
relation in rounds: every pair is judged against the relation as it
stood at the start of the round, so a removal's stage is meaningful
(the distinguishing formula needs nesting depth at most the stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import relations as rel
from .errors import FlavorError, InternalCheckError, PreconditionError
from .formula import Fragment
from .model import EK, FS, GPT, H, STANDARD, TENSE, Model, Partition

_EMPTY = frozenset()


@dataclass(frozen=True)
class ConditionSet:
    """Which clauses a candidate relation must satisfy.  Atom
    agreement is always required and has no field."""

    order_forth: bool = False
    order_back: bool = False
    dual_forth: bool = False
    dual_back: bool = False
    boxes: tuple[int, ...] = ()
    diamonds: tuple[int, ...] = ()
    tdias: tuple[int, ...] = ()
    tboxes: tuple[int, ...] = ()

    def clause_names(self) -> tuple[str, ...]:
        names = ["atoms"]
        for flag, name in ((self.order_forth, "order_forth"),
                           (self.order_back, "order_back"),
                           (self.dual_forth, "dual_forth"),
                           (self.dual_back, "dual_back")):
            if flag:
                names.append(name)
        for i in self.boxes:
            names += [f"box{i}_zig", f"box{i}_zag"]
        for j in self.diamonds:
            names += [f"dia{j}_zig", f"dia{j}_zag"]
        for i in self.tdias:
            names += [f"tdia{i}_zig", f"tdia{i}_zag"]
        for j in self.tboxes:
            names += [f"tbox{j}_zig", f"tbox{j}_zag"]
        return tuple(names)


def conditions_for(frag: Fragment, flavor: str) -> ConditionSet:
    """The canonical clause set for a fragment on models of a flavor.

    Rejects combinations the flavor cannot interpret.  Single-relation
    flavors fold the fragment's operators onto their stored relation:
    fs reads box and diamond off the same relation, so one box zigzag
    covers both; h interprets all four modalities from one relation
    and always pairs the box zigzag with the backward-diamond zigzag.
    """
    order = frag.base in ("int", "biint")
    dual = frag.base in ("intdual", "biint")
    n, m_dia, tense = frag.n_boxes, frag.m_diamonds, frag.tense

    if flavor == STANDARD:
        if tense:
            raise FlavorError(
                "standard models do not interpret backward modalities")
        return ConditionSet(order, order, dual, dual,
                            boxes=tuple(range(1, n + 1)),
                            diamonds=tuple(range(1, m_dia + 1)))
    if flavor == EK:
        if tense or m_dia:
            raise FlavorError("ek models interpret box operators only")
        return ConditionSet(order, order, dual, dual,
                            boxes=tuple(range(1, n + 1)))
    if flavor not in (FS, GPT, TENSE, H):
        raise FlavorError(f"unknown flavor {flavor!r}")
    if n > 1 or m_dia > 1:
        raise FlavorError(
            f"flavor {flavor!r} stores one relation per modality")
    if flavor == FS:
        if tense:
            raise FlavorError("fs models do not interpret backward modalities")
        return ConditionSet(order, order, dual, dual,
                            boxes=(1,) if (n or m_dia) else ())
    if flavor in (GPT, TENSE):
        return ConditionSet(order, order, dual, dual,
                            boxes=(1,) if n else (),
                            diamonds=(1,) if m_dia else (),
                            tdias=(1,) if (tense and n) else (),
                            tboxes=(1,) if (tense and m_dia) else ())
    # h: one stored relation feeds all four modalities
    if frag.base != "biint":
        raise FlavorError("h models carry the full bi-intuitionistic language")
    modal = (1,) if (n or m_dia) else ()
    return ConditionSet(order, order, dual, dual, boxes=modal, tdias=modal)


# ---------------------------------------------------------------------------
# Clause resolution and checking


@dataclass(frozen=True)
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


def _succ_map(relation: frozenset, states) -> dict[str, frozenset]:
    raw = rel.successors(relation)
    return {x: frozenset(raw.get(x, ())) for x in states}


def _stored(model: Model, which: str, index: int) -> frozenset:
    rels = model.boxes if which == "box" else model.diamonds
    if not 1 <= index <= len(rels):
        raise FlavorError(
            f"clause needs {which} relation {index} but the model "
            f"stores {len(rels)}")
    return rels[index - 1]


def resolved_tasks(conditions: ConditionSet, m: Model, m2: Model) -> list[Task]:
    """Instantiate the clause set against a concrete pair of models,
    in the fixed clause order."""
    if m.flavor != m2.flavor:
        raise PreconditionError(
            f"models have different flavors: {m.flavor!r} vs {m2.flavor!r}")
    tasks: list[Task] = []

    def add(clause, direction, shape, index, left, right):
        tasks.append(Task(clause, direction, left, right, shape, index))

    def add_modal(shape, index, left_rel, right_rel):
        left = _succ_map(left_rel, m.states)
        right = _succ_map(right_rel, m2.states)
        add(f"{shape}{index}_zig", "zig", shape, index, left, right)
        add(f"{shape}{index}_zag", "zag", shape, index, left, right)

    if conditions.order_forth:
        add("order_forth", "zig", "imp", None, m.up_map, m2.up_map)
    if conditions.order_back:
        add("order_back", "zag", "imp", None, m.up_map, m2.up_map)
    if conditions.dual_forth:
        add("dual_forth", "zig", "sub", None, m.down_map, m2.down_map)
    if conditions.dual_back:
        add("dual_back", "zag", "sub", None, m.down_map, m2.down_map)
    for i in conditions.boxes:
        add_modal("box", i, _stored(m, "box", i), _stored(m2, "box", i))
    for j in conditions.diamonds:
        add_modal("dia", j, _stored(m, "dia", j), _stored(m2, "dia", j))
    for i in conditions.tdias:
        add_modal("tdia", i, rel.converse(_stored(m, "box", i)),
                  rel.converse(_stored(m2, "box", i)))
    for j in conditions.tboxes:
        add_modal("tbox", j, rel.converse(_stored(m, "dia", j)),
                  rel.converse(_stored(m2, "dia", j)))
    return tasks


def _atom_disagreement(pair, m: Model, m2: Model, atoms) -> str | None:
    x, x2 = pair
    for a in atoms:
        if ((x in m.valuation.get(a, _EMPTY))
                != (x2 in m2.valuation.get(a, _EMPTY))):
            return a
    return None


def _unmatched(pair, task: Task, holds):
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


# ---------------------------------------------------------------------------
# Public checks


@dataclass(frozen=True)
class BisimViolation:
    pair: tuple[str, str]
    clause: str
    side: str  # "left", "right", or "" for atom disagreements
    transition: tuple[str, ...]

    def __str__(self) -> str:
        if self.clause == "atoms":
            return (f"pair {self.pair} disagrees on atom {self.transition[0]}")
        src, tgt = self.transition
        return (f"pair {self.pair} fails {self.clause}: {self.side} "
                f"transition {src} -> {tgt} has no match")


def is_bisimulation(b: Iterable[tuple[str, str]], m: Model, m2: Model,
                    conditions: ConditionSet) -> list[BisimViolation]:
    """Check a candidate relation clause by clause.  Returns every
    failure (first unmatched transition per pair and clause); empty
    means b is a bisimulation for these conditions."""
    pairs = frozenset((str(a), str(c)) for a, c in b)
    for x, x2 in pairs:
        if x not in m.state_set or x2 not in m2.state_set:
            raise PreconditionError(
                f"pair ({x}, {x2}) is not in the models' carriers")
    tasks = resolved_tasks(conditions, m, m2)
    atoms = _all_atoms(m, m2)
    holds = pairs.__contains__
    out: list[BisimViolation] = []
    for pair in sorted(pairs):
        bad_atom = _atom_disagreement(pair, m, m2, atoms)
        if bad_atom is not None:
            out.append(BisimViolation(pair, "atoms", "", (bad_atom,)))
        for task in tasks:
            tr = _unmatched(pair, task, holds)
            if tr is not None:
                out.append(BisimViolation(pair, task.clause, tr[0], tr[1:]))
    return out


@dataclass(frozen=True)
class Removal:
    """Why one pair left the refinement: the clause it failed and the
    transition nobody matched, tagged with the round number."""

    pair: tuple[str, str]
    stage: int
    clause: str
    side: str
    transition: tuple[str, ...]


@dataclass(frozen=True)
class RefinementTrace:
    removals: tuple[Removal, ...]
    rounds: int

    def by_pair(self) -> dict[tuple[str, str], Removal]:
        return {r.pair: r for r in self.removals}

    def at_stage(self, stage: int) -> tuple[Removal, ...]:
        return tuple(r for r in self.removals if r.stage == stage)


def greatest_bisimulation(m: Model, m2: Model,
                          conditions: ConditionSet):
    """The largest bisimulation between two models for the given
    clause set, with the trace of every removed pair.

    Starts from all atom-agreeing pairs and removes, round by round,
    every pair failing some clause.  Rounds are barriers: all removals
    of a round are judged against the relation from the round before.

    Every pair is re-checked each round, so the cost is about
    |X|^2 * |X'|^2 * clauses in the worst case.  Partition-refinement
    tricks would beat that asymptotically but would lose the per-pair
    stage and violation record the formula synthesizer replays.

    Returns (relation, RefinementTrace).
    """
    tasks = resolved_tasks(conditions, m, m2)
    atoms = _all_atoms(m, m2)
    removals: list[Removal] = []
    b: set[tuple[str, str]] = set()
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
        doomed: list[Removal] = []
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


def bisimilarity_partition(m: Model, conditions: ConditionSet) -> Partition:
    """Blocks of mutually bisimilar states of one model, named by
    least member.  The fixpoint of a model against itself must come
    out an equivalence; anything else is an internal bug."""
    b, _ = greatest_bisimulation(m, m, conditions)
    for x in m.states:
        if (x, x) not in b:
            raise InternalCheckError(
                f"bisimilarity is not reflexive at {x}")
    if rel.converse(b) != b:
        raise InternalCheckError("bisimilarity is not symmetric")
    if rel.missing_transitivity(b) is not None:
        raise InternalCheckError("bisimilarity is not transitive")
    succ = rel.successors(b)
    blocks = {frozenset(succ[x]) for x in m.states}
    return Partition.from_blocks(blocks)


def directed_conversion(value):
    """Swap between the symmetric and directed presentations of a
    bisimulation: a relation B becomes the pair (B, B converse); a
    pair (Z1, Z2) collapses to Z1 ∩ converse(Z2)."""
    if isinstance(value, tuple) and len(value) == 2:
        z1, z2 = (frozenset(tuple(p) for p in z) for z in value)
        return z1 & rel.converse(z2)
    b = frozenset(tuple(p) for p in value)
    return (b, rel.converse(b))
