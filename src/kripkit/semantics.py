"""Truth sets of formulas over models.

The order connectives always read the same way:

    x ⊨ a -> b   iff every y ≥ x in [[a]] is in [[b]]
    x ⊨ a -< b   iff some  y ≤ x is in [[a]] but not [[b]]

Modal clauses depend on the model's flavor.  Each flavor resolves a
modal operator to an effective relation and then applies the usual
clause (box: all successors, diamond: some successor):

    flavor     []i          <>j          <|i           |>j
    standard   R_i          S_j          -             -
    fs         ≤∘R          R            -             -
    gpt        ≤∘R          S            R̆             ≤∘S̆
    tense      R            S            R̆             S̆
    h          R            ≥∘R∘≥        R̆             ≤∘R̆∘≤
    ek         R_i          -            -             -

where R̆ is the converse.  The h row derives its diamond from the box
relation: the left converse ≥∘R∘≥ is what keeps truth sets upward
closed with only one stored relation.  Common knowledge C is evaluable
on ek models only and quantifies over chains of knowledge steps (the
positive transitive closure of the union; pass ck_reflexive=True for
the reflexive variant).

Each model keeps one successor table, built entry by entry on first
request: an operator class keys the effective relation above, so that
choice is made here only, and a bisim clause shape keys the stored
relation that clause reads.  The table numbers the states and holds
each entry as bit masks too, which the refinement reads; _Kernel lays
several models' masks side by side, and _definable_preorder computes
the least family of masks closed under its connectives as the
preorder that family is the upsets of.  The exact oracle and
close_algebra both build their families that way.  Truth sets are
cached on the model as well, so repeated evaluation stays cheap.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import accumulate
from operator import or_
from typing import Iterator

from . import relations as rel
from .errors import FlavorError, ModelFormatError, PreconditionError
from .formula import (And, Atom, Bot, Box, Ck, Dia, Formula, Fragment, Imp,
                      Or, Sub, TBox, TDia, Top)
from .model import EK, FS, GPT, H, STANDARD, TENSE, Model


def left_converse(r: frozenset, m: Model) -> frozenset:
    """≥ ∘ r ∘ ≥ : the derived diamond relation of single-relation
    bi-intuitionistic models."""
    return rel.compose_all(m.geq, r, m.geq)


def _stored_box(m: Model, index: int) -> frozenset:
    if not 1 <= index <= len(m.boxes):
        raise FlavorError(
            f"model has no box relation {index} (flavor {m.flavor!r} "
            f"stores {len(m.boxes)})")
    return m.boxes[index - 1]


def _stored_dia(m: Model, index: int) -> frozenset:
    if not 1 <= index <= len(m.diamonds):
        raise FlavorError(
            f"model has no diamond relation {index} (flavor {m.flavor!r} "
            f"stores {len(m.diamonds)})")
    return m.diamonds[index - 1]


def box_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose universal image interprets []index."""
    if m.flavor in (STANDARD, TENSE, H, EK):
        return _stored_box(m, index)
    if m.flavor in (FS, GPT):
        return rel.compose(m.leq, _stored_box(m, index))
    raise FlavorError(f"flavor {m.flavor!r} does not interpret []")


def dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose existential image interprets <>index."""
    if m.flavor in (STANDARD, GPT, TENSE):
        return _stored_dia(m, index)
    if m.flavor == FS:
        return _stored_box(m, index)
    if m.flavor == H:
        return left_converse(_stored_box(m, index), m)
    raise FlavorError(f"flavor {m.flavor!r} does not interpret <>")


def back_dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation for <|index, which looks backward along the
    box relation."""
    if m.flavor in (GPT, TENSE, H):
        return rel.converse(_stored_box(m, index))
    raise FlavorError(f"flavor {m.flavor!r} does not interpret <|")


def back_box_relation(m: Model, index: int) -> frozenset:
    """Effective relation for |>index, which looks backward along the
    diamond relation."""
    if m.flavor == TENSE:
        return rel.converse(_stored_dia(m, index))
    if m.flavor == GPT:
        return rel.compose(m.leq, rel.converse(_stored_dia(m, index)))
    if m.flavor == H:
        return rel.compose_all(m.leq, rel.converse(_stored_box(m, index)),
                               m.leq)
    raise FlavorError(f"flavor {m.flavor!r} does not interpret |>")


def ck_relation(m: Model, reflexive: bool = False) -> frozenset:
    """Chains of knowledge steps: the transitive closure of the union
    of all knowledge relations, reflexive on demand."""
    if m.flavor != EK:
        raise FlavorError(f"flavor {m.flavor!r} does not interpret C")
    return rel.transitive_closure(m.boxes, reflexive=reflexive,
                                  states=m.states)


def _forall(states, succ, a) -> frozenset:
    return frozenset(x for x in states if succ[x] <= a)


def _exists(states, succ, a) -> frozenset:
    return frozenset(x for x in states if succ[x] & a)


def _imp(m: Model, a, b) -> frozenset:
    return frozenset(x for x in m.states if m.up_map[x] & a <= b)


def _sub(m: Model, a, b) -> frozenset:
    return frozenset(x for x in m.states if m.down_map[x] & a - b)


# Each modal operator's effective relation, and its clause: all
# successors (box-like) or some successor (diamond-like).
_MODAL = {Box: (box_relation, _forall), Dia: (dia_relation, _exists),
          TDia: (back_dia_relation, _exists),
          TBox: (back_box_relation, _forall), Ck: (ck_relation, _forall)}

# The stored relation each bisim clause shape reads.
_STORED = {"imp": lambda m, _: m.leq, "sub": lambda m, _: m.geq,
           "box": _stored_box, "dia": _stored_dia,
           "tdia": lambda m, i: rel.converse(_stored_box(m, i)),
           "tbox": lambda m, i: rel.converse(_stored_dia(m, i))}


def _successors(m: Model, key, index=None) -> dict[str, frozenset]:
    """Successor map, total on m's states, of table entry (key, index):
    the effective relation of operator key (a key of _MODAL), with
    ck_reflexive for index on Ck, or the stored one of clause shape key
    (a key of _STORED).  Built once per model; a FlavorError is raised
    on every request the model cannot interpret."""
    succ = m._succ_table.get((key, index))
    if succ is None:
        relation = (_MODAL[key][0] if key in _MODAL else _STORED[key])
        raw = rel.successors(relation(m, index))
        succ = m._succ_table[key, index] = {x: frozenset(raw.get(x, ()))
                                            for x in m.states}
    return succ


def _index(m: Model) -> dict[str, int]:
    """m's states numbered in state order: state i is bit 1 << i."""
    index = m._succ_table.get("index")
    if index is None:
        index = m._succ_table["index"] = {x: i for i, x in enumerate(m.states)}
    return index


def _mask(m: Model, xs) -> int:
    index = _index(m)
    out = 0
    for x in xs:
        out |= 1 << index[x]
    return out


def _succ_masks(m: Model, key, index=None) -> list[int]:
    """Table entry (key, index) as successor masks, one per state."""
    masks = m._succ_table.get((key, index, int))
    if masks is None:
        succ = _successors(m, key, index)
        masks = m._succ_table[key, index, int] = [_mask(m, succ[x])
                                                  for x in m.states]
    return masks


def _bits_disjoint(masks: list[int], d: int) -> int:
    """Bit k set where masks[k] and d share no bit."""
    out, bit = 0, 1
    for mask in masks:
        if not mask & d:
            out |= bit
        bit <<= 1
    return out


def _bits_meeting(masks: list[int], d: int) -> int:
    """Bit k set where masks[k] and d share a bit."""
    out, bit = 0, 1
    for mask in masks:
        if mask & d:
            out |= bit
        bit <<= 1
    return out


def _reads_all(key) -> bool:
    """Whether modal operator key (a key of _MODAL) reads all
    successors, like a box, and so preserves intersections; the others
    read some successor and preserve unions."""
    return _MODAL[key][1] is _forall


class _Kernel:
    """Bit masks over models laid side by side: bit offsets[k] + i is
    the i-th state of models[k], so one integer holds a state set of
    every model at once, and & and | act on all of them.  Each model's
    masks come from its own table, shifted past the models before it."""

    def __init__(self, models: list[Model]):
        self.models = models
        self.offsets = list(accumulate([len(m.states) for m in models[:-1]],
                                       initial=0))

    def connective(self, key, index=None):
        """Table entry (key, index) as a connective on masks: for the
        arrows "imp" and "sub" (index None) a function of a & ~b, since
        that is all imp(a, b) and sub(a, b) depend on, and for a key of
        _MODAL a function of a.  A call scans each state's successor
        mask once."""
        succ = [x << shift for m, shift in zip(self.models, self.offsets)
                for x in _succ_masks(m, key, index)]
        if key == "imp":
            return partial(_bits_disjoint, succ)
        if key == "sub":
            return partial(_bits_meeting, succ)
        if _reads_all(key):
            return lambda a: _bits_disjoint(succ, ~a)
        return partial(_bits_meeting, succ)


def _refine(classes: dict[int, int], sets) -> bool:
    """Cut a preorder by each mask in sets, so that a state in a set
    stays below only the states in it.  classes maps the up mask of
    each class of mutually below states (the states above them) to its
    members.  Returns whether any class changed."""
    changed = False
    for s in sets:
        for up, members in list(classes.items()):
            inside = members & s
            if inside and up & ~s:
                changed = True
                del classes[up]
                classes[up & s] = inside
                if inside != members:
                    classes[up] = members & ~s
    return changed


def _definable_preorder(n: int, generators: list[int], modal: list,
                        arrows: list) -> dict[int, int]:
    """The least family of n-bit masks that holds the generators, 0 and
    the carrier and is closed under & and | and the given _Kernel
    connectives, as the preorder it is the upsets of (Birkhoff), in
    _refine's classes: a class's up mask is the least member holding
    it.  modal pairs each unary connective with whether it preserves &
    (boxes) rather than | (diamonds).

    Every connective distributes, so it is enough to apply it to the
    irreducible members.  Boxes go to the meet-irreducibles, the
    carrier minus the down mask of a class (the states below it);
    diamonds go to the join-irreducibles, the up masks; an arrow
    depends on a & ~b only, which over a join- and a meet-irreducible
    is an up mask and a down mask.  Each round applies every
    connective to the current irreducibles and cuts the preorder by
    the results; a round that cuts nothing ends the loop."""
    full = (1 << n) - 1
    classes = {full: full}
    _refine(classes, generators)
    while True:
        downs = []
        for members in classes.values():
            low = members & -members
            downs.append(reduce(or_, [below for up, below in classes.items()
                                      if up & low]))
        fresh = set()
        for op, preserves_meets in modal:
            if preserves_meets:
                fresh.update([op(full & ~down) for down in downs])
            else:
                fresh.update(map(op, classes))
        if arrows:
            spans = {up & down for up in classes for down in downs}
            spans.discard(0)
            for arrow in arrows:
                fresh.update(map(arrow, spans))
        if not _refine(classes, fresh):
            return classes


def _connectives(frag: Fragment) -> Iterator[tuple]:
    """The fragment's connectives besides & and |, as table entries:
    its arrows, then its boxes, diamonds, backward diamonds and
    backward boxes.  Yielded one at a time, so a caller that resolves
    each entry meets the first one a model lacks before the rest of a
    huge count is ever built."""
    if frag.base in ("int", "biint"):
        yield "imp", None
    if frag.base in ("intdual", "biint"):
        yield "sub", None
    modal = [(Box, frag.n_boxes), (Dia, frag.m_diamonds)]
    if frag.tense:
        modal += [(TDia, frag.n_boxes), (TBox, frag.m_diamonds)]
    for op, count in modal:
        for i in range(1, count + 1):
            yield op, i


def truth_set(f: Formula, m: Model, ck_reflexive: bool = False) -> frozenset:
    """All states of m where f holds.  On a valid model this is always
    an upset of the order (persistence).  m is not validated, so on a
    model that breaks its frame conditions, say with a valuation that
    is not upward closed, the result need not be an upset."""
    key = (f, ck_reflexive)
    cached = m._eval_cache.get(key)
    if cached is not None:
        return cached

    def ev(g: Formula) -> frozenset:
        return truth_set(g, m, ck_reflexive)

    op = type(f)
    if isinstance(f, Atom):
        out = m.valuation.get(f.name, frozenset())
    elif isinstance(f, Top):
        out = m.state_set
    elif isinstance(f, Bot):
        out = frozenset()
    elif isinstance(f, And):
        out = ev(f.left) & ev(f.right)
    elif isinstance(f, Or):
        out = ev(f.left) | ev(f.right)
    elif isinstance(f, Imp):
        out = _imp(m, ev(f.left), ev(f.right))
    elif isinstance(f, Sub):
        out = _sub(m, ev(f.left), ev(f.right))
    elif op in _MODAL:
        succ = _successors(m, op, ck_reflexive if op is Ck else f.index)
        out = _MODAL[op][1](m.states, succ, ev(f.body))
    else:
        raise FlavorError(f"no evaluation clause for {op.__name__}")
    m._eval_cache[key] = out
    return out


_ARROWS = {"arrow": ("imp", _imp), "coarrow": ("sub", _sub)}
_BARS = {"boxbar": Box, "diabar": Dia}


def _operator(kind: str) -> tuple:
    """Parse a set-level connective name into the table entry (key,
    index) it reads: index None for the binary arrows "imp" and "sub",
    at least 1 for Box and Dia.  Raises ValueError on any other name."""
    if kind in _ARROWS:
        return _ARROWS[kind][0], None
    name, _, suffix = kind.rpartition("_")
    if name in _BARS and suffix.isdigit() and int(suffix) >= 1:
        return _BARS[name], int(suffix)
    raise ValueError(f"unknown semantic operator {kind!r}")


def semantic_operator(kind: str, m: Model, a: frozenset,
                      b: frozenset | None = None) -> frozenset:
    """Apply one set-level connective.  Kinds: "arrow" and "coarrow"
    are binary; "boxbar_i" and "diabar_j" are unary with the relation
    index (at least 1) baked into the name.  Arguments must be sets of
    m's states, else ModelFormatError names the first unknown one, and
    upsets, since the operators are only meaningful on the upset
    lattice."""
    args = [frozenset(arg) for arg in (a, b) if arg is not None]
    for arg in args:
        unknown = arg - m.state_set
        if unknown:
            raise ModelFormatError(
                f"semantic operator argument mentions unknown state "
                f"{sorted(unknown)[0]!r}")
    for arg in args:
        if not rel.is_upset(m.leq, arg):
            raise PreconditionError(
                f"semantic operator arguments must be upsets; "
                f"{sorted(arg)} is not upward closed")
    key, index = _operator(kind)
    if index is None and b is None:
        raise ValueError(f"{kind} needs two arguments")
    if index is not None and b is not None:
        raise ValueError(f"{kind} takes one argument")
    if index is None:
        return _ARROWS[kind][1](m, a, b)
    return _MODAL[key][1](m.states, _successors(m, key, index), a)
