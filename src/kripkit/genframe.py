"""General frames at desk scale: explicit families of admissible sets.

A set algebra is a family of state sets containing the empty set and
the whole carrier.  close_algebra closes a family of generators under
intersection, union, and a chosen list of set operators; the result
is the upsets of the preorder semantics._definable_preorder computes,
as for the exact oracle.  is_general_model asks whether a family
supports a whole fragment, by counting the upsets of the same
preorder; descriptive_box_check asks whether the effective box
relation can be read back off the algebra, the finite shadow of
descriptiveness:

    x R y  iff  every admissible a with x in box(a) contains y

The left-to-right half is the box clause itself, so a failure is
always a pair related by the algebra but not by R.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Iterable, Sequence

from . import relations as rel
from . import semantics
from .errors import ModelFormatError, PreconditionError
from .formula import Box, Fragment
from .model import Model, _known


# n singletons on a discrete order close to 2^n + 1 sets; porcupine(6)
# with both arrows closes to 40,321.
MAX_ALGEBRA_SIZE = 50_000


def _canon_key(s: frozenset):
    return (len(s), tuple(sorted(s)))


class SetAlgebra:
    """An immutable family of state sets in canonical order (by size,
    then members)."""

    def __init__(self, sets: Iterable[Iterable[str]]):
        family = {frozenset(s) for s in sets}
        self.sets: tuple[frozenset, ...] = tuple(
            sorted(family, key=_canon_key))
        self._members = family

    def __contains__(self, s) -> bool:
        return frozenset(s) in self._members

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetAlgebra):
            return NotImplemented
        return self.sets == other.sets

    __hash__ = None

    def __repr__(self) -> str:
        return f"SetAlgebra({len(self.sets)} sets)"

    def to_lists(self) -> list[list[str]]:
        return [sorted(s) for s in self.sets]


def close_algebra(m: Model, generators: Iterable[Iterable[str]],
                  ops: Sequence[str] = ()) -> SetAlgebra:
    """Close a family of generators under intersection, union, and the
    named operators ("arrow", "coarrow", "boxbar_i", "diabar_j").  The
    empty set and the carrier are always thrown in.  Raises ValueError
    on an unknown name, then ModelFormatError on an unknown state, then
    FlavorError on an operator the model cannot interpret, then, with
    ops given, PreconditionError on the first non-upset generator in
    canonical order or on a non-upset operator result; and on a family
    of more than MAX_ALGEBRA_SIZE sets.  The cost is polynomial in the
    states and generators, plus one step per class and output set."""
    entries = [semantics._operator(op) for op in ops]
    family: set[frozenset] = {frozenset(), m.state_set}
    family.update(_known(m, g, "generator") for g in generators)
    kernel = semantics._Kernel([m])
    modal = [(kernel.connective(key, index), semantics._MODAL[key])
             for key, index in entries if index is not None]
    arrows = [kernel.connective(*e) for e in entries if e[1] is None]
    if entries:
        upset = partial(semantics._upset, m)
        for g in sorted(family, key=_canon_key):
            upset(semantics._mask(m, g))
        modal = [(lambda a, op=op: upset(op(a)), reads_all)
                 for op, reads_all in modal]
        arrows = [lambda d, op=op: upset(op(d)) for op in arrows]
    classes = semantics._definable_preorder(
        len(m.states), [semantics._mask(m, g) for g in family], modal, arrows)
    members = _upsets(classes, MAX_ALGEBRA_SIZE)
    if members is None:
        raise PreconditionError(
            f"the closed family has more than {MAX_ALGEBRA_SIZE} sets")
    return SetAlgebra(rel._names(m.states, a) for a in members)


def _upsets(classes: dict[int, int], limit: int) -> set[int] | None:
    """The upsets of a _definable_preorder result, each a union of up
    masks, or None as soon as there are more than limit of them."""
    members = {0}
    for above in classes:
        members.update([a | above for a in members])
        if len(members) > limit:
            return None
    return members


def is_general_model(m: Model, algebra: SetAlgebra,
                     frag: Fragment) -> bool:
    """Whether the family supports the fragment on this model: it must
    hold the empty set, the carrier, and every valuation set; contain
    only upsets; and be closed under intersection, union, and the
    fragment's connectives (arrow for int bases, coarrow for dual
    bases, one box or diamond operator per modality).  Raises
    ModelFormatError first on a state outside the model.  The upsets
    of the members' definable preorder are the least closed family
    holding them, so the family is closed exactly when there are no
    more of those than members; listing them stops past that count."""
    _known(m, set().union(*algebra), "algebra")
    if frozenset() not in algebra or m.state_set not in algebra:
        return False
    up = semantics._succ_masks(m, "imp")
    masks = {semantics._mask(m, a) for a in algebra}
    if any(up[i] & ~a for a in masks for i in rel._bits(a)):
        return False
    if any(xs not in algebra for xs in m.valuation.values()):
        return False
    kernel = semantics._Kernel([m])
    modal, arrows = [], []
    for key, index in semantics._connectives(replace(frag, tense=False)):
        op = kernel.connective(key, index)
        if index is None:
            arrows.append(op)
        elif op(0) not in masks:
            return False  # before an operator further on can fail
        else:
            modal.append((op, semantics._MODAL[key]))
    classes = semantics._definable_preorder(len(m.states), masks, modal,
                                            arrows)
    return _upsets(classes, len(masks)) is not None


def descriptive_box_check(m: Model, algebra: SetAlgebra, index: int = 1):
    """Can the box relation be recovered from the algebra?  Compares
    the effective box relation E (≤∘R on fs and gpt) against the
    algebraically induced relation

        x R_A y  iff  for all a in the family: x in box(a) implies y in a

    so R_A(x) is the meet of the members holding E(x), at one step per
    state and member.  E is always included in R_A, so the check fails
    exactly when some pair is induced but absent; the first such pair
    (lexicographically) is returned as (False, pair).  Success is
    (True, None).  Raises FlavorError on an index the model lacks,
    then, for the first bad member in canonical order,
    ModelFormatError on a foreign state or PreconditionError on a
    non-upset.

    Only the box relation is examined.  Whether the order itself
    deserves the name descriptive is a duality-theoretic question
    about the underlying intuitionistic frame, and nothing in this
    module answers it."""
    box = semantics._succ_masks(m, Box, index)
    masks = [semantics._upset(m, semantics._mask(
        m, _known(m, a, "semantic operator argument"))) for a in algebra]
    full = (1 << len(m.states)) - 1
    for x, succ in zip(m.states, box):
        induced = full ^ succ
        for a in masks:
            if not succ & ~a:
                induced &= a
        if induced:
            y = m.states[(induced & -induced).bit_length() - 1]
            return (False, (x, y))
    return (True, None)


def algebra_from_lists(data, m: Model | None = None) -> SetAlgebra:
    """Parse the JSON form of an algebra: a list of state-name lists.
    With a model given, membership of every state is checked."""
    if not isinstance(data, list):
        raise ModelFormatError("algebra must be a list of state lists")
    sets = []
    for i, entry in enumerate(data):
        if (not isinstance(entry, list)
                or not all(isinstance(s, str) for s in entry)):
            raise ModelFormatError(
                f"algebra entry {i} must be a list of state names")
        sets.append(entry if m is None
                    else _known(m, entry, f"algebra entry {i}"))
    return SetAlgebra(sets)
