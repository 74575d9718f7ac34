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
pair again (greatest_bisimulation gives the argument).  Only the
removed pairs are judged clause by clause, on a compiled kernel: the
relation of the round before as row and column bit masks over the
table's state numbering, each clause as the table's successor masks.
So the trace names the clause and transition a re-check of every pair
in every round would.  is_bisimulation reads the same kernel, and
bisimilarity_partition reads its blocks off the classes of a model
against itself.
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


class _Kernel:
    """The resolved clauses of one pair of models compiled to bit
    masks, with the relation under refinement held the same way.

    semantics numbers states in sorted name order, so walking a mask's
    bits from low to high visits states in the order `sorted` gives.
    rows[i] holds the right states paired with left state i, cols[j]
    the left states paired with right state j.  Each check is (clause,
    zig, own, other, table): a zig reads left successors (own, by i)
    against right ones (other, by j) through rows, a zag the other way
    round through cols.  Its successor masks are the table's entries
    for its shape.
    """

    def __init__(self, clauses: list[tuple], m: Model, m2: Model):
        self.states, self.states2 = m.states, m2.states
        self.rows = [0] * len(m.states)
        self.cols = [0] * len(m2.states)
        # (left, right) successor masks of each table entry read
        self.succs: dict[tuple, tuple[list[int], list[int]]] = {}
        self.checks = []
        for clause, direction, shape, index in clauses:
            succs = self.succs.get((shape, index))
            if succs is None:
                succs = self.succs[shape, index] = (
                    semantics._succ_masks(m, shape, index),
                    semantics._succ_masks(m2, shape, index))
            left, right = succs
            self.checks.append((clause, True, left, right, self.rows)
                               if direction == "zig" else
                               (clause, False, right, left, self.cols))
        self.atoms = sorted(set(m.valuation) | set(m2.valuation))
        self.sig = _atom_signatures(m, self.atoms)
        self.sig2 = _atom_signatures(m2, self.atoms)

    def atom_disagreement(self, i: int, j: int) -> str | None:
        """The first atom, in sorted order, that holds at exactly one of
        left state i and right state j."""
        differ = self.sig[i] ^ self.sig2[j]
        if not differ:
            return None
        return self.atoms[(differ & -differ).bit_length() - 1]

    def first_failure(self, i: int, j: int, start: int = 0):
        """The first clause, from checks[start] on, that pair (i, j)
        fails against the current rows and cols, as (k, clause, side,
        transition) naming the first transition the other side cannot
        answer; None if they all hold."""
        for k, (clause, zig, own, other, table) in enumerate(
                self.checks[start:] if start else self.checks, start):
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


def _atom_signatures(m: Model, atoms: list[str]) -> list[int]:
    """Per state, bit k set when atoms[k] holds there."""
    index = m._index
    sig = [0] * len(index)
    for k, a in enumerate(atoms):
        bit = 1 << k
        for x in m.valuation.get(a, _EMPTY):
            sig[index[x]] |= bit
    return sig


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
    kernel = _Kernel(_resolved(conditions, m, m2), m, m2)
    index, index2 = m._index, m2._index
    for x, x2 in pairs:
        i, j = index[x], index2[x2]
        kernel.rows[i] |= 1 << j
        kernel.cols[j] |= 1 << i
    out: list[BisimViolation] = []
    for pair in sorted(pairs):
        i, j = index[pair[0]], index2[pair[1]]
        bad_atom = kernel.atom_disagreement(i, j)
        if bad_atom is not None:
            out.append(BisimViolation(pair, "atoms", "", (bad_atom,)))
        failure = kernel.first_failure(i, j)
        while failure is not None:
            k, clause, side, transition = failure
            out.append(BisimViolation(pair, clause, side, transition))
            failure = kernel.first_failure(i, j, k + 1)
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
    kernel, removals, rounds = _refine(m, m2, conditions)
    states, states2 = m.states, m2.states
    pairs = frozenset((states[i], x2) for i, row in enumerate(kernel.rows)
                      if row for x2 in rel._names(states2, row))
    return pairs, RefinementTrace(tuple(removals), rounds)


def _refine(m: Model, m2: Model, conditions: ConditionSet,
            judge: bool = True):
    """The refinement of greatest_bisimulation, as (kernel, removals,
    rounds); the kernel's rows and cols hold the fixpoint.  With judge
    false no removed pair is judged and removals stays empty.

    Each class of a round has a bit, and a state signs its successors'
    classes, relation by relation, as the OR of their bits; the
    signature is one int, the state's own class bit followed by one
    part of `width` bits per relation.  Bits 0 and 1 stand for the
    merged left-only and right-only classes: a successor there puts a
    bit into the signature that no state of the other model can have,
    so its state joins a one-sided class too.  Only states of mixed
    classes are signed.  A class is a slot [left members, right
    members, bit] keyed by its signature, so a left state's partners
    after the round are its slot's right members.
    """
    if (conditions.order_forth != conditions.order_back
            or conditions.dual_forth != conditions.dual_back):
        raise PreconditionError(
            "greatest_bisimulation needs every zig clause paired with its "
            "zag; is_bisimulation checks one-way clause sets")
    kernel = _Kernel(_resolved(conditions, m, m2), m, m2)
    states, states2 = m.states, m2.states
    rows, cols = kernel.rows, kernel.cols
    sig, sig2 = kernel.sig, kernel.sig2
    # stage 0: the classes are the atom signatures
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for i, s in enumerate(sig):
        left[s] = left.get(s, 0) | 1 << i
    for j, s in enumerate(sig2):
        right[s] = right.get(s, 0) | 1 << j
    bit = {s: 4 << k for k, s in enumerate(left.keys() & right.keys())}
    removals: list[Removal] = []
    everyone2 = (1 << len(states2)) - 1
    atoms = kernel.atoms
    bits: list[int] = []
    live: list[int] = []  # the left states in mixed classes
    for i, (x, s) in enumerate(zip(states, sig)):
        bits.append(bit.get(s, 1))
        if bits[i] == 1:
            gone = everyone2
        else:
            live.append(i)
            rows[i] = right[s]
            gone = everyone2 ^ rows[i]
        while judge and gone:
            low = gone & -gone
            gone ^= low
            j = low.bit_length() - 1
            differ = s ^ sig2[j]
            removals.append(Removal(
                (x, states2[j]), 0, "atoms", "",
                (atoms[(differ & -differ).bit_length() - 1],)))
    bits2: list[int] = []
    live2: list[int] = []
    for j, s in enumerate(sig2):
        bits2.append(bit.get(s, 2))
        if bits2[j] != 2:
            live2.append(j)
            cols[j] = left[s]

    succs = [masks for masks, _ in kernel.succs.values()]
    succs2 = [masks for _, masks in kernel.succs.values()]
    first_failure = kernel.first_failure
    width = len(bit) + 3
    rounds = 0
    while live:
        stage = rounds + 1
        slots: dict[int, list[int]] = {}
        mine: list[list[int]] = []
        mine2: list[list[int]] = []
        for xs, own, masks, out, side in ((live, bits, succs, mine, 0),
                                          (live2, bits2, succs2, mine2, 1)):
            for x in xs:
                key = own[x]
                for succ in masks:
                    key <<= width
                    row = succ[x]
                    while row:
                        low = row & -row
                        key |= own[low.bit_length() - 1]
                        row ^= low
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = [0, 0]
                slot[side] |= 1 << x
                out.append(slot)
        if all(rows[x] == slot[1] for x, slot in zip(live, mine)):
            break  # the round removes no pair
        if judge:
            for x, slot in zip(live, mine):
                gone = rows[x] ^ slot[1]
                while gone:
                    low = gone & -gone
                    gone ^= low
                    j = low.bit_length() - 1
                    failure = first_failure(x, j)
                    if failure is None:
                        raise InternalCheckError(
                            f"pair ({states[x]}, {states2[j]}) left the "
                            f"refinement in round {stage} but fails no "
                            "clause")
                    _, clause, side, transition = failure
                    removals.append(Removal((states[x], states2[j]), stage,
                                            clause, side, transition))
        rounds = stage
        b = 4
        for slot in slots.values():
            if slot[0] and slot[1]:
                slot.append(b)
                b <<= 1
            else:
                slot.append(1 if slot[0] else 2)
        width = b.bit_length()
        for x, slot in zip(live, mine):
            rows[x], bits[x] = slot[1:]
        for x, slot in zip(live2, mine2):
            cols[x] = slot[0]
            bits2[x] = slot[2]
        if b == 4:  # no class holds states of both models
            break
        live = [x for x in live if rows[x]]
        live2 = [x for x in live2 if cols[x]]
    return kernel, removals, rounds


def bisimilarity_partition(m: Model, conditions: ConditionSet) -> Partition:
    """Blocks of mutually bisimilar states of one model, named by
    least member: the classes of the model's refinement against
    itself.  The fixpoint must come out an equivalence, which is
    checked on its rows; anything else is an internal bug."""
    kernel, _, _ = _refine(m, m, conditions, judge=False)
    rows = kernel.rows
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
    pair (Z1, Z2) collapses to Z1 ∩ converse(Z2)."""
    if isinstance(value, tuple) and len(value) == 2:
        z1, z2 = (frozenset(tuple(p) for p in z) for z in value)
        return z1 & rel.converse(z2)
    b = frozenset(tuple(p) for p in value)
    return (b, rel.converse(b))
