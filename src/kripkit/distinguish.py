"""Distinguishing formulas and the constructive Hennessy-Milner check.

greatest_bisimulation leaves a trace: every discarded pair fell to a
named clause with an unmatched transition.  Replaying that trace in
stage order turns each removal into a concrete formula separating the
two states, built only from witnesses of earlier stages:

    owner   the side whose transition nobody matched
    t       the target of that transition
    cover   the other side's candidate targets; every pair of t with
            a cover element died earlier, so each has a witness

    Φ = conjunction of earlier witnesses true at t
    Ψ = disjunction of earlier witnesses true at a cover element

Box-shaped clauses (order_forth/order_back, box, tbox) yield a formula
true on the non-owner side: the bare implication Φ -> Ψ, or that
implication under the clause's box.  Diamond-shaped clauses
(dual_forth/dual_back, dia, tdia) yield Φ -< Ψ, possibly under the
clause's diamond, true on the owner side.  T -> χ collapses to χ and
χ -< F to χ, which keeps witnesses readable (and reproduces textbook
separators like nested boxes over F).

The replay reads each removal straight off the trace's rows of place
numbers, and each cover off the successor masks of the clause's table
entry in semantics, the ones the refinement reads, walking its bits
from low to high, which is sorted name order, and keeps each pair's
witness in a slot addressed by the two state numbers; no successor
map, name-keyed table or Removal object is built.

The argument that Φ -> Ψ behaves needs the cover to be closed upward,
which is why synthesis insists on strictly condensed models whenever a
modal clause is in play; the order clauses get closure from
transitivity alone.  Every witness is re-evaluated in both models
before it is returned, so a recipe bug shows up as an internal error,
never as silently wrong output.

bounded_equivalence_oracle goes the other way around: it works with
the sets the fragment's formulas define over both models at once and
declares two states equivalent when no definable set splits them.
Those sets are the upsets of one preorder on the states (Birkhoff), so
without a budget the oracle refines that preorder by the connectives
applied to irreducible sets, each connective to each irreducible once,
in polynomial time; a budget instead
lists definable sets, cheapest formula first.  It works on the bit
masks of a semantics._Kernel, which also gives its atoms and decodes
its classes; semantics._definable_preorder, which
genframe.close_algebra and genframe.is_general_model share, refines
the preorder.  It shares only the kernel with the bisimulation
refinement.  hennessy_milner_check ties the two together.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from . import semantics
from .bisim import (ConditionSet, _check_counts, _resolved, conditions_for,
                    greatest_bisimulation)
from .errors import InternalCheckError, PreconditionError
from .formula import (And, Atom, Bot, Box, Dia, Formula, Fragment, Imp, Or,
                      Sub, TBox, TDia, Top, connective_count, to_string)
from .model import Model, require_valid

_EMPTY = frozenset()

# The operator each modal clause shape puts around its witness core;
# the arrow shapes "imp" and "sub" use the core as it is.
_MODAL_SHAPE = {"box": Box, "tbox": TBox, "dia": Dia, "tdia": TDia}


@dataclass(frozen=True)
class Witness:
    """A formula separating one removed pair: true at the state on the
    `orientation` side, false at the other.  The stage bounds its
    nesting depth."""

    pair: tuple[str, str]
    formula: Formula
    orientation: str  # "left" or "right"
    stage: int

    def to_dict(self) -> dict:
        return {"pair": list(self.pair),
                "formula": to_string(self.formula),
                "orientation": self.orientation, "stage": self.stage}


def _dedup_and_sort(formulas, m: Model, m2: Model) -> list[Formula]:
    """Drop formulas with duplicate truth sets (in both models at
    once), keeping the smallest, and order the survivors."""
    best: dict = {}
    for f in formulas:
        key = (semantics.truth_set(f, m), semantics.truth_set(f, m2))
        rank = (connective_count(f), str(f))
        if key not in best or rank < best[key][0]:
            best[key] = (rank, f)
    return [f for _, f in sorted(best.values(), key=lambda pair: pair[0])]


def _fold(combine, items: list[Formula], empty: Formula) -> Formula:
    if not items:
        return empty
    return reduce(combine, items)


def _check_witnessable(conditions: ConditionSet, frag: Fragment) -> None:
    if (conditions.boxes or conditions.tboxes) and frag.base == "intdual":
        raise PreconditionError(
            "box-shaped witnesses need implication, which base 'intdual' "
            "lacks; no synthesis recipe is known for this combination")
    if (conditions.diamonds or conditions.tdias) and frag.base == "int":
        raise PreconditionError(
            "diamond-shaped witnesses need subtraction, which base 'int' "
            "lacks; no synthesis recipe is known for this combination")


def synthesize(m: Model, m2: Model, frag: Fragment):
    """Compute the greatest bisimulation for the fragment's clause set
    and a verified distinguishing formula for every discarded pair.

    The trace is replayed in removal order, straight from its rows of
    place numbers; a trace built from Removal objects is encoded into
    rows first.  A removal's cover is the other side's successor mask
    for its clause, read from the model's table, and its pairs with
    the transition's target are looked up in state order, bit by bit
    from low to high; each witness is kept in the slot
    i * len(m2.states) + j of its pair's state numbers.

    Returns (fixpoint relation, list of Witness in removal order).
    """
    if m.flavor != m2.flavor:
        raise PreconditionError(
            f"models have different flavors: {m.flavor!r} vs {m2.flavor!r}")
    # A clause set's shapes, and the errors conditions_for raises,
    # depend on each count only up to 2, so witnessability is checked on
    # the clause set of a capped fragment; the counts are checked against
    # the models before a larger clause set is built, one index per count.
    capped = Fragment(frag.base, min(frag.n_boxes, 2),
                      min(frag.m_diamonds, 2), frag.tense)
    conditions = conditions_for(capped, m.flavor)
    _check_witnessable(conditions, frag)
    _check_counts(frag, m, m2)
    if capped != frag:
        conditions = conditions_for(frag, m.flavor)
    require_valid(m, "synthesize")
    require_valid(m2, "synthesize")
    modal_clauses = (conditions.boxes or conditions.diamonds
                     or conditions.tdias or conditions.tboxes)
    if modal_clauses:
        for side, model in (("left", m), ("right", m2)):
            if not model.validate().strictly_condensed:
                raise PreconditionError(
                    f"{side} model is not strictly condensed; witness "
                    "synthesis over modal clauses needs that (strictify "
                    "the model first)")

    fixpoint, trace = greatest_bisimulation(m, m2, conditions)
    # check index -> (clause, shape, index, zig, left successor masks,
    # right ones)
    checks = [(clause, shape, index, direction == "zig",
               semantics._succ_masks(m, shape, index),
               semantics._succ_masks(m2, shape, index))
              for clause, direction, shape, index
              in _resolved(conditions, m, m2)]
    rows, atoms = trace._rows_on(m, m2, tuple(
        (clause, zig) for clause, _, _, zig, _, _ in checks))
    states, states2 = m.states, m2.states
    n, n2 = len(states), len(states2)
    slots: list[Witness | None] = [None] * (n * n2)
    out: list[Witness] = []

    for a, b, stage, k, t in zip(*[iter(rows)] * 5):
        b -= n
        x, x2 = states[a], states2[b]
        if k < 0:
            clause, atom = "atoms", atoms[t]
            formula: Formula = Atom(atom)
            orientation = ("left" if x in m.valuation.get(atom, _EMPTY)
                           else "right")
        else:
            clause, shape, index, zig, succ, succ2 = checks[k]
            # the other side's cover, walked in state (sorted name)
            # order; the target t is a place of the owner's side
            if zig:
                owner, cover = "left", succ2[b]
                base, step = t * n2, 1
            else:
                owner, cover = "right", succ[a]
                t -= n
                base, step = t, n2
            true_at_t: list[Formula] = []
            true_at_cover: list[Formula] = []
            while cover:
                low = cover & -cover
                cover ^= low
                c = low.bit_length() - 1
                w = slots[base + c * step]
                if w is None:
                    pair = ((states[t], states2[c]) if zig
                            else (states[c], states2[t]))
                    raise InternalCheckError(
                        f"trace replay hit pair {pair} with no witness "
                        f"while handling {(x, x2)}")
                if w.orientation == owner:
                    true_at_t.append(w.formula)
                else:
                    true_at_cover.append(w.formula)
            phi = _fold(And, _dedup_and_sort(true_at_t, m, m2), Top())
            psi = _fold(Or, _dedup_and_sort(true_at_cover, m, m2), Bot())
            if shape in ("imp", "box", "tbox"):
                core = psi if isinstance(phi, Top) else Imp(phi, psi)
                orientation = "right" if zig else "left"
            else:
                core = phi if isinstance(psi, Bot) else Sub(phi, psi)
                orientation = owner
            formula = (_MODAL_SHAPE[shape](index, core)
                       if shape in _MODAL_SHAPE else core)

        holds_left = x in semantics.truth_set(formula, m)
        holds_right = x2 in semantics.truth_set(formula, m2)
        want = (True, False) if orientation == "left" else (False, True)
        if (holds_left, holds_right) != want:
            raise InternalCheckError(
                f"synthesized witness for {(x, x2)} does not separate "
                f"(clause {clause}): {formula}")
        witness = Witness((x, x2), formula, orientation, stage)
        slots[a * n2 + b] = witness
        out.append(witness)
    return fixpoint, out


def verify_witnesses(witnesses: Iterable[Witness], m: Model,
                     m2: Model) -> list[str]:
    """Re-evaluate each witness in both models.  Returns one message
    per witness that fails to separate its pair; empty means all
    hold."""
    problems = []
    for w in witnesses:
        x, x2 = w.pair
        got = (x in semantics.truth_set(w.formula, m),
               x2 in semantics.truth_set(w.formula, m2))
        want = (True, False) if w.orientation == "left" else (False, True)
        if got != want:
            problems.append(
                f"witness for pair {w.pair} does not separate: {w.formula}")
    return problems


# ---------------------------------------------------------------------------
# Equivalence by formula saturation


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise PreconditionError(f"budget must be >= 0, got {budget}")


class _Table(dict):
    """One arrow's results, filled on first lookup and kept for a
    single budgeted closure; a hit is a plain subscript.  A full table
    is emptied before it grows further, so its memory stays bounded."""

    # Keys are arbitrary state sets, up to 2^(n+m) of them, so a large
    # budget could grow a table without bound; this cap holds two
    # tables near 4 MB.
    CAP = 1 << 14

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key: int) -> int:
        if len(self) >= self.CAP:
            self.clear()
        value = self[key] = self._compute(key)
        return value


def _budgeted_closure(generators: list[int], unary: list, arrows: list,
                      budget: int) -> tuple[list[int], bool]:
    """Admit at most `budget` derived signatures, cheapest connective
    count first, ties broken by push order.  Returns the admitted
    signatures and whether the worklist ran dry first."""
    binary = [(lambda a, b: a & b, True), (lambda a, b: a | b, True)]
    binary += [(lambda a, b, table=_Table(arrow): table[a & ~b],
                False) for arrow in arrows]

    closed: dict[int, int] = dict.fromkeys(generators, 0)
    heap: list = []
    tick = 0
    cheapest_pushed: dict[int, int] = {}

    def push(sig, cost):
        nonlocal tick
        if sig in closed:
            return
        prior = cheapest_pushed.get(sig)
        if prior is not None and prior <= cost:
            return
        cheapest_pushed[sig] = cost
        tick += 1
        heapq.heappush(heap, (cost, tick, sig))

    def expand(sig):
        cost = closed[sig]
        for op in unary:
            push(op(sig), cost + 1)
        for op, commutes in binary:
            for other, other_cost in list(closed.items()):
                push(op(sig, other), cost + other_cost + 1)
                if not commutes:
                    push(op(other, sig), cost + other_cost + 1)

    for sig in list(closed):
        expand(sig)

    derived = 0
    while heap:
        cost, _, sig = heapq.heappop(heap)
        if sig in closed:
            continue
        if derived >= budget:
            return list(closed), False
        closed[sig] = cost
        derived += 1
        expand(sig)
    return list(closed), True


def bounded_equivalence_oracle(m: Model, m2: Model, frag: Fragment,
                               budget: int | None = None):
    """Which state pairs agree on every fragment formula, decided by
    saturating formula semantics over both models at once.

    Formulas are explored as signature pairs (truth set here, truth
    set there), one bit mask over both models.  Without a budget the
    answer is exact: the definable masks are the upsets of one
    preorder on the states of both models, which
    semantics._definable_preorder refines from the atoms, T and F by
    the fragment's connectives applied to irreducible members only, in
    polynomial time; two states are equivalent when each is below the
    other.  A budget,
    which must be >= 0, instead lists derived signatures, cheapest
    connective count first, and admits at most that many; that order
    only decides which signatures a budgeted run admits.  Exhausting
    the worklist first means the answer is exact; hitting the budget
    means the returned relation may still be too coarse.  Budget 0
    gives plain atom agreement.

    Returns (relation, exact).
    """
    _check_budget(budget)
    kernel = semantics._Kernel([m, m2])
    modal, arrows = [], []
    for key, index in semantics._connectives(frag):
        op = kernel.connective(key, index)
        if index is None:
            arrows.append(op)
        else:
            modal.append((op, semantics._MODAL[key]))
    n = len(kernel.names)
    full = (1 << n) - 1
    generators = [0, full, *kernel.atoms()[1]]
    if budget is None:
        classes = semantics._definable_preorder(n, generators, modal, arrows)
        exact = True
    else:
        closed, exact = _budgeted_closure(
            generators, [op for op, _ in modal], arrows, budget)
        classes = {full: full}
        semantics._refine(classes, closed)
    return kernel.cross_pairs(classes.values()), exact


@dataclass(frozen=True)
class HMReport:
    """Outcome of the two-sided Hennessy-Milner comparison."""

    passed: bool
    fixpoint: frozenset
    oracle: frozenset
    oracle_exact: bool
    witnesses: tuple[Witness, ...]
    problems: tuple[str, ...]


def hennessy_milner_check(m: Model, m2: Model, frag: Fragment,
                          budget: int | None = None) -> HMReport:
    """Confirm both halves of the Hennessy-Milner property on one pair
    of models: every non-bisimilar pair gets a verified distinguishing
    formula, and formula equivalence coincides with the bisimulation
    fixpoint.  An inexact oracle that still matches the fixpoint is
    fine (the true equivalence is squeezed in between); an inexact
    mismatch is reported as undecided."""
    _check_budget(budget)
    fixpoint, witnesses = synthesize(m, m2, frag)
    problems = verify_witnesses(witnesses, m, m2)
    oracle, exact = bounded_equivalence_oracle(m, m2, frag, budget)
    if oracle != fixpoint:
        extra = sorted(oracle - fixpoint)
        missing = sorted(fixpoint - oracle)
        if missing:
            problems.append(
                f"bisimilar pairs split by some formula: {missing}")
        if extra:
            if exact:
                problems.append(
                    f"formula-equivalent pairs are not bisimilar: {extra}")
            else:
                problems.append(
                    f"oracle budget ran out before separating: {extra}")
    return HMReport(not problems, fixpoint, oracle, exact,
                    tuple(witnesses), tuple(problems))
