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
request from the model's bit rows (see model and relations).  A bisim
clause shape keys the stored relation that clause reads: "imp" is ≤,
"box" and "dia" are stored relation i, and "sub", "tdia" and "tbox"
are their converses.  An operator class keys its effective relation,
which _EFFECTIVE holds as the table above, each cell a product of
clause shapes composed left to right, so that choice is made here
only.  Every entry is a list of successor masks, one per state.  A
stored relation's entry is the model's own rows, at no cost; a
converse is a transpose; a composition ORs the right factor's rows
named by each row of the left one; and C's closure is Warshall's on
the union of the rows.  relations picks the method of each from the
density of the rows.  truth_set, semantic_operator, the refinement,
the oracle, genframe and the trace replay of witness synthesis all
read these masks.  Frozensets appear only where the public API returns
them: the relation readers below decode an entry once per call, at
one step per pair, and truth_set decodes one mask per node it
evaluates, but for the empty and the full mask, which stand for the
shared empty set and the model's state_set.

_Kernel lays several models' masks side by side: place offsets[k] + i
is state i of models[k], so one int holds a state set of every model,
and a table entry over all places keeps the first model's masks as
they are and shifts the others'.  Only it knows that layout: the
refinement and the oracle take from it each place's state, the atoms'
masks and the pairs of the two models' states in a class of places.
The mask connectives are one scan, _bits_meeting, complemented for a
box and ->.
_definable_preorder computes the least family of masks closed under
its connectives as the preorder that family is the upsets of, giving
each connective each irreducible argument once.  The
exact oracle and close_algebra build their families that way, and
is_general_model tests a family's closure on it.
Truth sets are cached on the model as well, with their masks, so
repeated evaluation stays cheap; a miss empties the cache first once
it holds MAX_EVAL_CACHE entries.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from typing import Iterator

from . import relations as rel
from .errors import FlavorError, PreconditionError
from .formula import (And, Atom, Bot, Box, Ck, Dia, Formula, Fragment, Imp,
                      Or, TBox, TDia, Top, _Binary, _MODAL_SYMBOL)
from .model import (EK, FS, GPT, H, STANDARD, TENSE, Model, _known,
                    _pair_view)


# Entries in a model's evaluation cache at which the next miss empties
# it.  A parent reads each child's mask right after the child's call
# returns, so emptying the cache between two calls loses nothing that
# an evaluation still needs.
MAX_EVAL_CACHE = 1 << 16

_EMPTY = frozenset()


def left_converse(r: frozenset, m: Model) -> frozenset:
    """≥ ∘ r ∘ ≥ : the derived diamond relation of single-relation
    bi-intuitionistic models.  Pairs of r with a state outside m have
    no part in it."""
    index = m._index
    rows = [0] * len(index)
    for a, b in r:
        if a in index and b in index:
            rows[index[a]] |= 1 << index[b]
    geq = _succ_masks(m, "sub")
    return _pair_view(m.states, reduce(rel._compose_rows, (geq, rows, geq)))


# Each clause shape's converse: the predecessors of a state under one
# are its successors under the other.
_CONVERSE = {"imp": "sub", "box": "tdia", "dia": "tbox"}
_CONVERSE.update({back: shape for shape, back in _CONVERSE.items()})

# Each flavor's effective relations, the module docstring's table: the
# clause shapes composed left to right, R being "box", S "dia", ≤
# "imp", ≥ "sub", R̆ "tdia" and S̆ "tbox".  A missing operator is a "-"
# cell.
_EFFECTIVE = {
    STANDARD: {Box: ("box",), Dia: ("dia",)},
    FS: {Box: ("imp", "box"), Dia: ("box",)},
    GPT: {Box: ("imp", "box"), Dia: ("dia",), TDia: ("tdia",),
          TBox: ("imp", "tbox")},
    TENSE: {Box: ("box",), Dia: ("dia",), TDia: ("tdia",), TBox: ("tbox",)},
    H: {Box: ("box",), Dia: ("sub", "box", "sub"), TDia: ("tdia",),
        TBox: ("imp", "tdia", "imp")},
    EK: {Box: ("box",)},
}


def _ck(m: Model, reflexive: bool) -> list[int]:
    if m.flavor != EK:
        raise FlavorError(f"flavor {m.flavor!r} does not interpret C")
    rows = [reduce(or_, column) for column in zip(*m._box_rows)]
    rel._close_rows(rows)
    if reflexive:
        rows = [row | 1 << i for i, row in enumerate(rows)]
    return rows


# Each modal operator's clause: whether it reads all successors, like
# a box, and so preserves intersections; the others read some
# successor and preserve unions.
_MODAL = {Box: True, Dia: False, TDia: False, TBox: True, Ck: True}


def _succ_masks(m: Model, key, index=None) -> list[int]:
    """Table entry (key, index) as successor masks, one per state: the
    effective relation of operator key (a key of _MODAL), with
    ck_reflexive for index on Ck, or the stored one of clause shape key
    ("imp" and "sub" with index None).  Built once per model; a
    FlavorError is raised on every request the model cannot
    interpret."""
    masks = m._succ_table.get((key, index))
    if masks is not None:
        return masks
    if key is Ck:
        masks = _ck(m, index)
    elif key == "imp":
        masks = m._leq_rows
    elif key in ("box", "dia"):
        rows, name = ((m._box_rows, "box") if key == "box"
                      else (m._dia_rows, "diamond"))
        if not 1 <= index <= len(rows):
            raise FlavorError(
                f"model has no {name} relation {index} (flavor "
                f"{m.flavor!r} stores {len(rows)})")
        masks = rows[index - 1]
    elif key in _CONVERSE:
        masks = rel._transpose(_succ_masks(m, _CONVERSE[key], index))
    elif (shapes := _EFFECTIVE[m.flavor].get(key)) is not None:
        masks = reduce(rel._compose_rows,
                       [_succ_masks(m, shape, None if shape in ("imp", "sub")
                                    else index) for shape in shapes])
    else:
        raise FlavorError(f"flavor {m.flavor!r} does not interpret "
                          f"{_MODAL_SYMBOL[key]}")
    m._succ_table[key, index] = masks
    return masks


def box_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose universal image interprets []index."""
    return _pair_view(m.states, _succ_masks(m, Box, index))


def dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose existential image interprets <>index."""
    return _pair_view(m.states, _succ_masks(m, Dia, index))


def back_dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation for <|index, which looks backward along the
    box relation."""
    return _pair_view(m.states, _succ_masks(m, TDia, index))


def back_box_relation(m: Model, index: int) -> frozenset:
    """Effective relation for |>index, which looks backward along the
    diamond relation."""
    return _pair_view(m.states, _succ_masks(m, TBox, index))


def ck_relation(m: Model, reflexive: bool = False) -> frozenset:
    """Chains of knowledge steps: the transitive closure of the union
    of all knowledge relations, reflexive on demand."""
    return _pair_view(m.states, _succ_masks(m, Ck, reflexive))


def _mask(m: Model, xs) -> int:
    """The states xs of m as a mask: state i is bit 1 << i."""
    index = m._index
    out = 0
    for x in xs:
        out |= 1 << index[x]
    return out


def _upset(m: Model, a: int) -> int:
    """The mask a, once it is checked to be an upset of m's order: the
    set-level connectives are only meaningful on the upset lattice."""
    up = _succ_masks(m, "imp")
    if any(up[i] & ~a for i in rel._bits(a)):
        raise PreconditionError(
            f"semantic operator arguments must be upsets; "
            f"{sorted(rel._names(m.states, a))} is not upward closed")
    return a


# Lists of at least this many masks are scanned into one flag per
# state, read back as a binary numeral in one conversion; shorter ones
# build the result a bit at a time, since each step of that loop
# shifts and ORs an int as long as the list, which is quadratic in the
# end; boxes and -> complement this one scan.  The switch is where the
# flags won on every kind of mask measured (CPython 3.11, best of many
# runs): on chains, random sparse and random dense masks, the flags
# took 0.78-0.88 of the loop's time at 64 masks and 0.68-0.75 at 256,
# were within a tenth of it at 32, and were slower below that,
# 1.16-1.28 times at 16 and 1.8 times at 8.
_LONG_SCAN = 64


def _bits_meeting(masks: list[int], d: int) -> int:
    """Bit k set where masks[k] and d share a bit."""
    if len(masks) >= _LONG_SCAN:
        return int("".join(["1" if mask & d else "0"
                            for mask in reversed(masks)]), 2)
    out, bit = 0, 1
    for mask in masks:
        if mask & d:
            out |= bit
        bit <<= 1
    return out


class _Kernel:
    """Bit masks over models laid side by side: bit offsets[k] + i is
    the i-th state of models[k], so one integer holds a state set of
    every model at once, and & and | act on all of them.  Each model's
    masks come from its own table, shifted past the models before it.
    names[p] is the state at place p."""

    def __init__(self, models: list[Model]):
        self.models = models
        self.names = sum((m.states for m in models), ())
        self.offsets = [0]
        for m in models[:-1]:
            self.offsets.append(self.offsets[-1] + len(m.states))

    def atoms(self) -> tuple[list[str], list[int]]:
        """The atoms of all the models in sorted order, and each atom's
        mask over the places: the states where it holds."""
        masks: dict[str, int] = {}
        for m, shift in zip(self.models, self.offsets):
            for a, xs in m.valuation.items():
                masks[a] = masks.get(a, 0) | _mask(m, xs) << shift
        atoms = sorted(masks)
        return atoms, [masks[a] for a in atoms]

    def cross_pairs(self, classes) -> frozenset:
        """The pairs (x, x2) of a state of the first model and a state
        of the second whose places lie in one of the masks classes."""
        states, states2 = self.models[0].states, self.models[1].states
        shift = self.offsets[1]
        first = (1 << shift) - 1
        pairs = []
        for c in set(classes):
            if c & first and c >> shift:
                right = list(rel._names(states2, c >> shift))
                pairs += [(x, x2) for x in rel._names(states, c & first)
                          for x2 in right]
        return frozenset(pairs)

    def masks(self, key, index=None) -> list[int]:
        """Table entry (key, index) over all places: place offsets[k] + i
        holds state i of models[k], and its mask is shifted by
        offsets[k].  The first model's masks are its table's own ints,
        not shifted copies."""
        models = self.models
        out = _succ_masks(models[0], key, index)
        for k in range(1, len(models)):
            shift = self.offsets[k]
            out = out + [x << shift for x in _succ_masks(models[k], key,
                                                         index)]
        return out

    def connective(self, key, index=None):
        """Table entry (key, index) as a connective on masks: for the
        arrows "imp" and "sub" (index None) a function of a & ~b, since
        that is all imp(a, b) and sub(a, b) depend on, and for a key of
        _MODAL a function of a.  A call scans each state's successor
        mask once; "imp" and the boxes keep the states it leaves out."""
        succ = self.masks(key, index)
        full = (1 << len(succ)) - 1
        if key == "imp":
            return lambda d: full ^ _bits_meeting(succ, d)
        if _MODAL.get(key):
            return lambda a: full ^ _bits_meeting(succ, ~a)
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
    is an up mask and a down mask.  Each round cuts the preorder by the
    connectives applied to the current irreducibles, and a round that
    cuts nothing ends the loop.

    The evaluation is semi-naive (Bancilhon & Ramakrishnan, SIGMOD
    1986): the meet-irreducibles already given to the boxes, the
    join-irreducibles already given to the diamonds and the spans
    already given to the arrows are remembered, and each round applies
    a connective only to arguments it has not seen.  That loses no cut.
    A connective's result depends on its argument alone, so a seen
    argument gives a mask the preorder was already cut by; and a cut is
    idempotent: once the preorder is cut by s, every class meeting s
    has its up mask inside s, later cuts only shrink up masks and split
    members, so cutting by s again changes nothing."""
    full = (1 << n) - 1
    classes = {full: full}
    _refine(classes, generators)
    seen_meets: set[int] = set()
    seen_joins: set[int] = set()
    seen_spans = {0}
    while True:
        downs = []
        for members in classes.values():
            low = members & -members
            downs.append(reduce(or_, [below for up, below in classes.items()
                                      if up & low]))
        meets = [a for down in downs if (a := full & ~down) not in seen_meets]
        seen_meets.update(meets)
        joins = [up for up in classes if up not in seen_joins]
        seen_joins.update(joins)
        fresh = set()
        for op, preserves_meets in modal:
            fresh.update(map(op, meets if preserves_meets else joins))
        if arrows:
            spans = {up & down for up in classes for down in downs}
            spans -= seen_spans
            seen_spans |= spans
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
    is not upward closed, the result need not be an upset.

    Each node is computed on masks, by its shape: a leaf reads the
    valuation or is a constant, and a binary connective or a modality
    first calls truth_set on each child and reads the child's mask off
    the cache entry that call leaves, right after it returns.  The
    node's mask is decoded once for the result, the empty and the full
    mask to sets shared like Bot's and Top's."""
    key = (f, ck_reflexive)
    cache = m._eval_cache
    hit = cache.get(key)
    if hit is not None:
        return hit[0]
    if len(cache) >= MAX_EVAL_CACHE:
        cache.clear()
    full = (1 << len(m.states)) - 1
    op = type(f)
    if isinstance(f, _Binary):
        left, right = f.left, f.right
        truth_set(left, m, ck_reflexive)
        a = cache[left, ck_reflexive][1]
        truth_set(right, m, ck_reflexive)
        b = cache[right, ck_reflexive][1]
        if isinstance(f, And):
            mask = a & b
        elif isinstance(f, Or):
            mask = a | b
        elif isinstance(f, Imp):
            mask = full ^ _bits_meeting(_succ_masks(m, "imp"), a & ~b)
        else:
            mask = _bits_meeting(_succ_masks(m, "sub"), a & ~b)
    elif op in _MODAL:
        succ = _succ_masks(m, op, ck_reflexive if op is Ck else f.index)
        body = f.body
        truth_set(body, m, ck_reflexive)
        a = cache[body, ck_reflexive][1]
        if _MODAL[op]:
            mask = full ^ _bits_meeting(succ, full ^ a)
        else:
            mask = _bits_meeting(succ, a)
    elif isinstance(f, Atom):
        out = m.valuation.get(f.name, _EMPTY)
        cache[key] = (out, _mask(m, out))
        return out
    elif isinstance(f, Top):
        cache[key] = (m.state_set, full)
        return m.state_set
    elif isinstance(f, Bot):
        cache[key] = (_EMPTY, 0)
        return _EMPTY
    else:
        raise FlavorError(f"no evaluation clause for {op.__name__}")
    if not mask:
        out = _EMPTY
    elif mask == full:
        out = m.state_set
    else:
        out = frozenset(rel._names(m.states, mask))
    cache[key] = (out, mask)
    return out


_ARROWS = {"arrow": "imp", "coarrow": "sub"}
_BARS = {"boxbar": Box, "diabar": Dia}


def _operator(kind: str) -> tuple:
    """Parse a set-level connective name into the table entry (key,
    index) it reads: index None for the binary arrows "imp" and "sub",
    at least 1 for Box and Dia.  Raises ValueError on any other name."""
    if kind in _ARROWS:
        return _ARROWS[kind], None
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
    lattice.  The connective is the oracle's, on masks."""
    args = [_known(m, arg, "semantic operator argument")
            for arg in (a, b) if arg is not None]
    masks = [_upset(m, _mask(m, arg)) for arg in args]
    key, index = _operator(kind)
    if index is None and b is None:
        raise ValueError(f"{kind} needs two arguments")
    if index is not None and b is not None:
        raise ValueError(f"{kind} takes one argument")
    op = _Kernel([m]).connective(key, index)
    out = op(masks[0] & ~masks[1]) if index is None else op(masks[0])
    return frozenset(rel._names(m.states, out))
