"""Seeded random models and formulas for tests and experiments.

Every generator takes a random.Random instance, so a fixed seed gives
a fixed object.  Models come out valid by construction: raw random
relations are composed with the order on the sides each flavor's
coherence conditions demand.  Composing on both sides gives strictly
condensed models; fs additionally needs the equivalence closure of the
order on the left, and h models are strictly condensed by definition.

Models are drawn into bit rows and composed on them; random_relation
and random_preorder decode the same draws into pairs.  Draws take the
states in list order, whatever order the rows number them in.

The formula generator respects a fragment: it only emits connectives
the fragment admits, and its depth argument bounds the nesting depth
of the result.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Sequence

from . import relations as rel
from . import semantics
from .errors import FlavorError
from .formula import (And, Atom, Bot, Ck, Formula, Fragment, Imp, Or, Sub,
                      TBox, TDia, Top)
from .model import EK, FS, GPT, H, STANDARD, TENSE, Model, _close_order


def _draw_row(rng: random.Random, bits: Sequence[int], density: float,
              skip: int = -1) -> int:
    """The OR of the bits whose draw, one per position but skip, in
    order, falls below density."""
    row = 0
    for k, bit in enumerate(bits):
        if k != skip and rng.random() < density:
            row |= bit
    return row


def _draw(rng: random.Random, bits: Sequence[int], density: float,
          loops: bool = True) -> list[int]:
    """Rows of a random relation over the states whose bits, in list
    order, are bits: a draw per pair, a-major, but for (a, a) unless
    loops.  Each state's row sits at its bit's number."""
    rows = [0] * len(bits)
    for a, bit in enumerate(bits):
        rows[bit.bit_length() - 1] = _draw_row(rng, bits, density,
                                               -1 if loops else a)
    return rows


def _units(n: int) -> list[int]:
    return [1 << k for k in range(n)]


def random_relation(rng: random.Random, states: Sequence[str],
                    density: float = 0.25) -> frozenset:
    rows = _draw(rng, _units(len(states)), density)
    return frozenset(rel._row_pairs(zip(states, rows), states))


def random_preorder(rng: random.Random, states: Sequence[str],
                    density: float = 0.2) -> frozenset:
    rows = _draw(rng, _units(len(states)), density, loops=False)
    _close_order(rows)
    return frozenset(rel._row_pairs(zip(states, rows), states))


def random_upset(rng: random.Random, leq: frozenset,
                 states: Sequence[str], density: float = 0.35) -> frozenset:
    seed = _draw_row(rng, _units(len(states)), density)
    return rel.upward_closure(leq, rel._names(states, seed))


def _numbering(n_states: int):
    """The states s0, s1, ... sorted, their numbering, and their bits
    in list order, the order every draw takes them in (from s10 on,
    not the sorted one)."""
    states = [f"s{i}" for i in range(n_states)]
    names = tuple(sorted(states))
    index = {x: i for i, x in enumerate(names)}
    return names, index, [1 << index[x] for x in states]


def random_model(rng: random.Random, flavor: str = STANDARD,
                 n_states: int = 5, n_boxes: int = 1, n_diamonds: int = 0,
                 atoms: Sequence[str] = ("p", "q"),
                 strict: bool = False) -> Model:
    """A valid random model of the given flavor.  With strict=True the
    result is strictly condensed (fs and h always are)."""
    names, index, bits = _numbering(n_states)
    leq = _draw(rng, bits, 0.2, loops=False)
    _close_order(leq)
    geq = rel._transpose(leq)

    def raw():
        return _draw(rng, bits, 0.25)

    def chain(*parts):  # parts composed left to right
        return reduce(rel._compose_rows, parts)

    def absorb(r0, order):
        return chain(order, r0, order) if strict else chain(order, r0)

    if flavor == STANDARD:
        boxes = [absorb(raw(), leq) for _ in range(n_boxes)]
        diamonds = [absorb(raw(), geq) for _ in range(n_diamonds)]
    elif flavor == EK:
        boxes = [absorb(raw(), leq) for _ in range(max(1, n_boxes))]
        diamonds = []
    elif flavor == FS:
        # the equivalence closure of the order keeps both coherence
        # directions while leaving the result strictly condensed
        equiv = [up | down for up, down in zip(leq, geq)]
        rel._close_rows(equiv)
        boxes = [chain(equiv, raw(), leq)]
        diamonds = []
    elif flavor == GPT:
        boxes = [chain(leq, raw(), leq) if strict else chain(raw(), leq)]
        diamonds = [absorb(raw(), geq)]
    elif flavor == TENSE:
        boxes = [chain(leq, raw(), leq)]
        diamonds = [chain(geq, raw(), geq)]
        if not strict:
            for rows in boxes + diamonds:
                for i in range(n_states):
                    rows[i] |= 1 << i
    elif flavor == H:
        boxes = [chain(leq, raw(), leq)]
        diamonds = []
    else:
        raise FlavorError(f"no random recipe for flavor {flavor!r}")

    valuation = {a: rel._names(names, rel._image(_draw_row(rng, bits, 0.35),
                                                 leq))
                 for a in atoms}
    return Model._from_rows(names, index, leq, boxes, diamonds, valuation,
                            flavor)


def random_classical_model(rng: random.Random, n_states: int = 5,
                           n_boxes: int = 1,
                           atoms: Sequence[str] = ("p", "q")) -> Model:
    """A standard model with the identity order: plain Kripke frames,
    where any valuation is an upset and any relation is coherent."""
    names, index, bits = _numbering(n_states)
    valuation = {a: rel._names(names, _draw_row(rng, bits, 0.5))
                 for a in atoms}
    boxes = [_draw(rng, bits, 0.3) for _ in range(n_boxes)]
    return Model._from_rows(names, index, _units(n_states), boxes, [],
                            valuation, STANDARD)


def random_formula(rng: random.Random, frag: Fragment, depth: int,
                   atoms: Sequence[str] = ("p", "q", "r"),
                   allow_ck: bool = False) -> Formula:
    """A formula the fragment admits, of nesting depth at most
    `depth`.  Each node is drawn from a pool of (class, leading
    arguments, subformula count): the leaves, then & and |, then the
    fragment's connectives as the oracle lists them, each twice but for
    the backward ones, then C if allowed."""
    leaves = [(Atom, (), 0), (Atom, (), 0), (Top, (), 0), (Bot, (), 0)]
    pool = leaves + [(And, (), 2), (Or, (), 2)] * 2
    for key, index in semantics._connectives(frag):
        if index is None:
            entry = ({"imp": Imp, "sub": Sub}[key], (), 2)
        else:
            entry = (key, (index,), 1)
        pool += [entry] if key in (TDia, TBox) else [entry] * 2
    if allow_ck:
        pool.append((Ck, (), 1))

    def draw(depth: int) -> Formula:
        cls, head, children = rng.choice(pool if depth > 0 else leaves)
        if cls is Atom:
            head = (rng.choice(list(atoms)),)
        return cls(*head, *map(draw, [depth - 1] * children))

    return draw(depth)
