"""General frames at desk scale: explicit families of admissible sets.

A set algebra is a family of state sets containing the empty set and
the whole carrier.  close_algebra grows a family of generators until
it is closed under intersection, union, and a chosen list of set
operators; is_general_model asks whether a family supports a whole
fragment; descriptive_box_check asks whether the box relation can be
read back off the algebra, the finite shadow of descriptiveness:

    x R y  iff  every admissible a with x in box(a) contains y

The left-to-right half is the box clause itself, so a failure is
always a pair related by the algebra but not by R.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import relations as rel
from . import semantics
from .errors import ModelFormatError
from .formula import Box, Fragment
from .model import Model


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


def _by_arity(ops: Iterable[str]) -> tuple[list[str], list[str]]:
    """Split operator names into unary and binary ones; a malformed
    name raises ValueError."""
    split: tuple[list[str], list[str]] = ([], [])
    for op in ops:
        arity, _ = semantics._operator(op)
        split[arity - 1].append(op)
    return split


def close_algebra(m: Model, generators: Iterable[Iterable[str]],
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


def is_general_model(m: Model, algebra: SetAlgebra,
                     frag: Fragment) -> bool:
    """Whether the family supports the fragment on this model: it must
    hold the empty set, the carrier, and every valuation set; contain
    only upsets; and be closed under intersection, union, and the
    fragment's connectives (arrow for int bases, coarrow for dual
    bases, one box or diamond operator per modality)."""
    if frozenset() not in algebra or m.state_set not in algebra:
        return False
    for a in algebra:
        if not rel.is_upset(m.leq, a):
            return False
    for xs in m.valuation.values():
        if xs not in algebra:
            return False
    ops: list[str] = []
    if frag.base in ("int", "biint"):
        ops.append("arrow")
    if frag.base in ("intdual", "biint"):
        ops.append("coarrow")
    ops += [f"boxbar_{i}" for i in range(1, frag.n_boxes + 1)]
    ops += [f"diabar_{j}" for j in range(1, frag.m_diamonds + 1)]
    unary_ops, binary_ops = _by_arity(ops)
    for a in algebra:
        for op in unary_ops:
            if semantics.semantic_operator(op, m, a) not in algebra:
                return False
        for b in algebra:
            if (a & b) not in algebra or (a | b) not in algebra:
                return False
            for op in binary_ops:
                if semantics.semantic_operator(op, m, a, b) not in algebra:
                    return False
    return True


def descriptive_box_check(m: Model, algebra: SetAlgebra, index: int = 1):
    """Can the box relation be recovered from the algebra?  Compares R
    against the algebraically induced relation

        x R_A y  iff  for all a in the family: x in box(a) implies y in a

    R is always included in R_A, so the check fails exactly when some
    pair is induced but absent; the first such pair (lexicographically)
    is returned as (False, pair).  Success is (True, None).

    Only the box relation is examined.  Whether the order itself
    deserves the name descriptive is a duality-theoretic question
    about the underlying intuitionistic frame, and nothing in this
    module answers it."""
    succ = semantics._successors(m, Box, index)
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
        s = frozenset(entry)
        if m is not None:
            unknown = s - m.state_set
            if unknown:
                raise ModelFormatError(
                    f"algebra entry {i} mentions unknown state "
                    f"{sorted(unknown)[0]!r}")
        sets.append(s)
    return SetAlgebra(sets)
