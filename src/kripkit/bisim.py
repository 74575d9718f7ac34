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

Modal clauses always run over the stored relations, which semantics'
successor table keeps beside the derived ones used by evaluation; on
strictly condensed models the two agree, which is why witness
synthesis insists on strict condensation.

conditions_for picks the clause set matching a syntactic fragment and
a model flavor.  greatest_bisimulation refines the atom-agreeing
relation in rounds, each judged against the relation as it stood at
the start of the round, so a removal's stage is meaningful (the
distinguishing formula needs nesting depth at most the stage).

The rounds refine classes of the disjoint union m ⊎ m2: every clause
set conditions_for builds pairs each zig with its zag, so the relation
after round k is the cross part of the k-step equivalence on the
union, and a class holding states of one model only never holds a
pair again (greatest_bisimulation gives the argument).  The states
of both models are places of one semantics._Kernel: the left model's
first, then the right one's, each in sorted order, so one int holds a
class of the union and each clause reads one list of successor masks
over all places.  Only the removed pairs are judged clause by clause,
against the classes of the round before; a zag is a zig with the two
places swapped.  So the trace names the clause and transition a
re-check of every pair in every round would.  is_bisimulation runs
the same check with each place's partners in place of its class, and
bisimilarity_partition reads its blocks off the classes of the model
refined alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import relations as rel
from . import semantics
from .errors import FlavorError, InternalCheckError, PreconditionError
from .formula import Fragment
from .model import (_SHAPES, EK, FS, GPT, H, STANDARD, TENSE, Model,
                    Partition)

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
        return ("atoms", *(clause for clause, *_ in _clauses(self)))


def _clauses(c: ConditionSet) -> Iterator[tuple]:
    """The clauses of c besides atoms, as (clause, direction, shape,
    index) in the fixed order; index is None for the order clauses."""
    for flag, clause, direction, shape in (
            (c.order_forth, "order_forth", "zig", "imp"),
            (c.order_back, "order_back", "zag", "imp"),
            (c.dual_forth, "dual_forth", "zig", "sub"),
            (c.dual_back, "dual_back", "zag", "sub")):
        if flag:
            yield clause, direction, shape, None
    for shape, indexes in (("box", c.boxes), ("dia", c.diamonds),
                           ("tdia", c.tdias), ("tbox", c.tboxes)):
        for i in indexes:
            for direction in ("zig", "zag"):
                yield f"{shape}{i}_{direction}", direction, shape, i


def _check_counts(frag: Fragment, *models: Model) -> None:
    """Reject box or diamond counts above what the models store before
    conditions_for builds one clause index per count, with the message
    the clause resolution would give.  Only relations a flavor stores
    any number of (a None count in model._SHAPES) are spelled out per
    count; the other flavors reject counts above one at once.  The
    first model's flavor is the one conditions_for reads."""
    boxes, diamonds = _SHAPES[models[0].flavor]
    for which, any_number, count in (("box", boxes is None, frag.n_boxes),
                                     ("dia", diamonds is None,
                                      frag.m_diamonds)):
        if any_number and count:
            stored = min(len(m._box_rows if which == "box" else m._dia_rows)
                         for m in models)
            if count > stored:
                raise FlavorError(
                    f"clause needs {which} relation {stored + 1} but the "
                    f"model stores {stored}")


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


def _resolved(conditions: ConditionSet, m: Model, m2: Model) -> list[tuple]:
    """The clauses of a clause set against a concrete pair of models,
    in the fixed clause order, as (clause, direction, shape, index);
    a clause reads the successor masks of its shape from the table."""
    if m.flavor != m2.flavor:
        raise PreconditionError(
            f"models have different flavors: {m.flavor!r} vs {m2.flavor!r}")
    tasks = []
    for task in _clauses(conditions):
        _, direction, shape, index = task
        if index is not None and direction == "zig":
            which = (shape if shape in ("box", "dia")
                     else semantics._CONVERSE[shape])
            for model in (m, m2):
                count = len(model._box_rows if which == "box"
                            else model._dia_rows)
                if not 1 <= index <= count:
                    raise FlavorError(
                        f"clause needs {which} relation {index} but the "
                        f"model stores {count}")
        tasks.append(task)
    return tasks


def _checks(conditions: ConditionSet,
            models: list[Model]) -> tuple[list[tuple], list[list[int]]]:
    """The resolved clauses of a clause set on models laid side by
    side (semantics._Kernel's places), as (clause, zig, masks) with
    masks the table entry of the clause's shape over all places, and
    the distinct entries read, in first-use order."""
    kernel = semantics._Kernel(models)
    entries: dict[tuple, list[int]] = {}
    checks = []
    for clause, direction, shape, index in _resolved(conditions, models[0],
                                                     models[-1]):
        masks = entries.get((shape, index))
        if masks is None:
            masks = entries[shape, index] = kernel.masks(shape, index)
        checks.append((clause, direction == "zig", masks))
    return checks, list(entries.values())


def _places(models: list[Model]) -> tuple[tuple, list[str], list[int]]:
    """The state names of the places, the atoms of all models in sorted
    order, and each place's atom signature: bit k set when atoms[k]
    holds there."""
    names: tuple = ()
    atoms: set[str] = set()
    for m in models:
        names += m.states
        atoms.update(m.valuation)
    atoms = sorted(atoms)
    sig = [0] * len(names)
    shift = 0
    for m in models:
        index, valuation = m._index, m.valuation
        for k, a in enumerate(atoms):
            bit = 1 << k
            for x in valuation.get(a, _EMPTY):
                sig[index[x] + shift] |= bit
        shift += len(m.states)
    return names, atoms, sig


def _first_failure(checks: list[tuple], part: list[int], names: tuple,
                   a: int, b: int, start: int = 0):
    """The first check, from checks[start] on, that the pair of places
    (a, b) fails, as (k, clause, side, transition) naming the first
    transition the other place cannot answer; None if they all hold.
    A successor y of one place is answered when part[y] meets the
    successors of the other, part[y] being y's class or the mask of
    its partners; a zig walks a's successors, a zag b's.  Walking a
    mask's bits from low to high visits states in sorted order."""
    for k, (clause, zig, masks) in enumerate(
            checks[start:] if start else checks, start):
        if zig:
            succ, cover = masks[a], masks[b]
        else:
            succ, cover = masks[b], masks[a]
        while succ:
            low = succ & -succ
            y = low.bit_length() - 1
            if not part[y] & cover:
                return (k, clause, "left" if zig else "right",
                        (names[a if zig else b], names[y]))
            succ ^= low
    return None


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
    means b is a bisimulation for these conditions.

    The clauses run on the places of m and m2 laid side by side, each
    place holding the mask of its partners under b."""
    pairs = frozenset((str(a), str(c)) for a, c in b)
    for x, x2 in pairs:
        if x not in m.state_set or x2 not in m2.state_set:
            raise PreconditionError(
                f"pair ({x}, {x2}) is not in the models' carriers")
    checks, _ = _checks(conditions, [m, m2])
    names, atoms, sig = _places([m, m2])
    index, index2, n = m._index, m2._index, len(m.states)
    part = [0] * len(names)
    for x, x2 in pairs:
        i, j = index[x], index2[x2] + n
        part[i] |= 1 << j
        part[j] |= 1 << i
    out: list[BisimViolation] = []
    for pair in sorted(pairs):
        i, j = index[pair[0]], index2[pair[1]] + n
        differ = sig[i] ^ sig[j]
        if differ:
            out.append(BisimViolation(
                pair, "atoms", "",
                (atoms[(differ & -differ).bit_length() - 1],)))
        failure = _first_failure(checks, part, names, i, j)
        while failure is not None:
            k, clause, side, transition = failure
            out.append(BisimViolation(pair, clause, side, transition))
            failure = _first_failure(checks, part, names, i, j, k + 1)
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
    of a round are judged against the relation from the round before,
    so a removal's stage bounds the nesting depth of a formula that
    separates its pair.  Within a round, pairs are judged in sorted
    order, each by its first failing clause in the fixed clause order
    and that clause's first unmatched transition.

    The rounds run as class refinement of the disjoint union m ⊎ m2
    (Kanellakis & Smolka, Inf. Comput. 1990; Blom & Orzan, STTT 2005).
    A clause set that pairs every zig with its zag, as conditions_for's
    always do, keeps a pair through round k exactly when its two
    states have, for every relation the clauses read, successors in
    the same classes of round k-1; so the relation after round k is
    the cross part of the k-step equivalence on the union.  Classes
    start as the atom signatures, and a state's class in round k is
    its class in round k-1 together with, relation by relation, the
    set of its successors' classes in round k-1.  A pair's stage is the
    first round that separates its two states, and only such pairs are
    judged clause by clause, against the relation of the round before.
    A class whose states all lie in one model holds no pair and never
    will again, so all such classes of one model are merged into one
    and their states no longer signed.  The rounds stop at the first
    that removes no pair, or as soon as no class holds states of both
    models, even if classes of one model would still split.  A clause
    set with a zig but not its zag raises PreconditionError.

    Returns (relation, RefinementTrace).
    """
    classes, removals, rounds = _refine([m, m2], conditions)
    states, states2, n = m.states, m2.states, len(m.states)
    pairs = frozenset((states[i], x2) for i in range(n)
                      for x2 in rel._names(states2, classes[i] >> n))
    return pairs, RefinementTrace(tuple(removals), rounds)


def _refine(models: list[Model], conditions: ConditionSet,
            judge: bool = True):
    """The refinement of greatest_bisimulation on the places of one or
    two models (semantics._Kernel), as (classes, removals, rounds):
    classes[p] is the mask of place p's class at the fixpoint.  The
    left side is the first model's places and the right side the
    second's; a lone model is both sides.  With judge false no removed
    pair is judged and removals stays empty.

    Stage 0 groups the places by atom signature.  After it each class
    has a bit, and a place signs its successors' classes, relation by
    relation, as the OR of their bits; the signature is one int, the
    place's own class bit followed by one part of `width` bits per
    relation.  Bits 0 and 1 stand for the merged left-only and
    right-only classes: a successor there puts a bit into the
    signature that no place of the other side can have, so its place
    joins a one-sided class too.  Only places of mixed classes, which
    hold both sides, are signed, and each signature's places form a
    class inside a mixed class of the round before; so a round splits
    no class when it makes as many classes as there were mixed ones.
    A left place's partners are its class's right places, so a round's
    removed pairs are judged before the classes are updated.
    """
    if (conditions.order_forth != conditions.order_back
            or conditions.dual_forth != conditions.dual_back):
        raise PreconditionError(
            "greatest_bisimulation needs every zig clause paired with its "
            "zag; is_bisimulation checks one-way clause sets")
    checks, entries = _checks(conditions, models)
    names, atoms, sig = _places(models)
    n = len(models[0].states)
    left = (1 << n) - 1
    right = (1 << len(names)) - 1 ^ left if len(models) > 1 else left
    classes = [left | right] * len(names)
    bits = [0] * len(names)
    live, keys = range(len(names)), sig
    removals: list[Removal] = []
    stage = rounds = mixed = 0
    while True:
        slots: dict[int, list[int]] = {}
        mine: list[list[int]] = []
        for x, key in zip(live, keys):
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = [0]
            slot[0] |= 1 << x
            mine.append(slot)
        if stage and len(slots) == mixed:
            break  # no class split, so the round removes no pair
        for x, slot in zip(live, mine) if judge else ():
            if x >= n:
                break
            gone = (classes[x] ^ slot[0]) & right
            while gone:
                low = gone & -gone
                gone ^= low
                j = low.bit_length() - 1
                if stage:
                    failure = _first_failure(checks, classes, names, x, j)
                    if failure is None:
                        raise InternalCheckError(
                            f"pair ({names[x]}, {names[j]}) left the "
                            f"refinement in round {stage} but fails no "
                            "clause")
                    _, clause, side, transition = failure
                else:
                    differ = sig[x] ^ sig[j]
                    clause, side, transition = "atoms", "", (
                        atoms[(differ & -differ).bit_length() - 1],)
                removals.append(Removal((names[x], names[j]), stage,
                                        clause, side, transition))
        rounds = stage
        mixed = 0
        for slot in slots.values():
            c = slot[0]
            if c & left and c & right:
                slot.append(4 << mixed)
                mixed += 1
            else:
                slot.append(1 if c & left else 2)
        for x, (c, b) in zip(live, mine):
            classes[x] = c
            bits[x] = b
        live = [x for x in live if bits[x] > 2]
        if not live:
            break  # no class holds places of both sides
        stage += 1
        width = mixed + 3
        keys = []
        for x in live:
            key = bits[x]
            for succ in entries:
                key <<= width
                row = succ[x]
                while row:
                    low = row & -row
                    key |= bits[low.bit_length() - 1]
                    row ^= low
            keys.append(key)
    return classes, removals, rounds


def bisimilarity_partition(m: Model, conditions: ConditionSet) -> Partition:
    """Blocks of mutually bisimilar states of one model, named by
    least member: the classes of the refinement of the model alone.
    A state and its copy in m ⊎ m always share a class, so these are
    the blocks of the model's refinement against itself, on half the
    places.  The fixpoint must come out an equivalence, which is
    checked on its rows; anything else is an internal bug."""
    rows, _, _ = _refine([m], conditions, judge=False)
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise InternalCheckError(
                f"bisimilarity is not reflexive at {m.states[i]}")
    # a reflexive relation is also symmetric and transitive when each
    # row is the row of every state it holds: one pass over the classes
    for row in set(rows):
        for j in rel._bits(row):
            if rows[j] != row:
                raise InternalCheckError(
                    f"bisimilarity is not an equivalence at {m.states[j]}")
    return Partition.from_blocks(rel._names(m.states, row)
                                 for row in set(rows))


def directed_conversion(value):
    """Swap between the symmetric and directed presentations of a
    bisimulation: a relation B becomes the pair (B, B converse); a
    pair (Z1, Z2) of collections of pairs collapses to
    Z1 ∩ converse(Z2).  A tuple of two pairs of names is a relation."""
    if (isinstance(value, tuple) and len(value) == 2
            and not any(isinstance(p, str) for z in value for p in z)):
        z1, z2 = (frozenset(tuple(p) for p in z) for z in value)
        return z1 & rel.converse(z2)
    b = frozenset(tuple(p) for p in value)
    return (b, rel.converse(b))
