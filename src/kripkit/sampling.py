"""Seeded random models and formulas for tests and experiments.

Every generator takes a random.Random instance, so a fixed seed gives
a fixed object.  Models come out valid by construction: raw random
relations are composed with the order on the sides each flavor's
coherence conditions demand.  Composing on both sides gives strictly
condensed models; fs additionally needs the equivalence closure of the
order on the left, and h models are strictly condensed by definition.

The formula generator respects a fragment: it only emits connectives
the fragment admits, and its depth argument bounds the nesting depth
of the result.
"""

from __future__ import annotations

import random
from typing import Sequence

from . import relations as rel
from . import semantics
from .errors import FlavorError
from .formula import (And, Atom, Bot, Ck, Formula, Fragment, Imp, Or, Sub,
                      TBox, TDia, Top)
from .model import EK, FS, GPT, H, STANDARD, TENSE, Model


def random_relation(rng: random.Random, states: Sequence[str],
                    density: float = 0.25) -> frozenset:
    return frozenset((a, b) for a in states for b in states
                     if rng.random() < density)


def random_preorder(rng: random.Random, states: Sequence[str],
                    density: float = 0.2) -> frozenset:
    seed = [(a, b) for a in states for b in states
            if a != b and rng.random() < density]
    return rel.preorder_closure(seed, states)


def random_upset(rng: random.Random, leq: frozenset,
                 states: Sequence[str], density: float = 0.35) -> frozenset:
    seed = {s for s in states if rng.random() < density}
    return rel.upward_closure(leq, seed)


def random_model(rng: random.Random, flavor: str = STANDARD,
                 n_states: int = 5, n_boxes: int = 1, n_diamonds: int = 0,
                 atoms: Sequence[str] = ("p", "q"),
                 strict: bool = False) -> Model:
    """A valid random model of the given flavor.  With strict=True the
    result is strictly condensed (fs and h always are)."""
    states = [f"s{i}" for i in range(n_states)]
    leq = random_preorder(rng, states)
    geq = rel.converse(leq)

    def raw():
        return random_relation(rng, states)

    def absorb_box(r0):
        if strict:
            return rel.compose_all(leq, r0, leq)
        return rel.compose(leq, r0)

    def absorb_dia(s0):
        if strict:
            return rel.compose_all(geq, s0, geq)
        return rel.compose(geq, s0)

    if flavor == STANDARD:
        boxes = [absorb_box(raw()) for _ in range(n_boxes)]
        diamonds = [absorb_dia(raw()) for _ in range(n_diamonds)]
    elif flavor == EK:
        boxes = [rel.compose_all(leq, raw(), leq) if strict
                 else rel.compose(leq, raw())
                 for _ in range(max(1, n_boxes))]
        diamonds = []
    elif flavor == FS:
        # the equivalence closure of the order keeps both coherence
        # directions while leaving the result strictly condensed
        equiv = rel.transitive_closure([leq, geq], reflexive=True,
                                       states=states)
        boxes = [rel.compose_all(equiv, raw(), leq)]
        diamonds = []
    elif flavor == GPT:
        boxes = [rel.compose_all(leq, raw(), leq) if strict
                 else rel.compose(raw(), leq)]
        diamonds = [rel.compose_all(geq, raw(), geq) if strict
                    else rel.compose(geq, raw())]
    elif flavor == TENSE:
        ident = rel.identity(states)
        if strict:
            boxes = [rel.compose_all(leq, raw(), leq)]
            diamonds = [rel.compose_all(geq, raw(), geq)]
        else:
            boxes = [ident | rel.compose_all(leq, raw(), leq)]
            diamonds = [ident | rel.compose_all(geq, raw(), geq)]
    elif flavor == H:
        boxes = [rel.compose_all(leq, raw(), leq)]
        diamonds = []
    else:
        raise FlavorError(f"no random recipe for flavor {flavor!r}")

    valuation = {a: random_upset(rng, leq, states) for a in atoms}
    return Model(states, leq, boxes=boxes, diamonds=diamonds,
                 valuation=valuation, flavor=flavor)


def random_classical_model(rng: random.Random, n_states: int = 5,
                           n_boxes: int = 1,
                           atoms: Sequence[str] = ("p", "q")) -> Model:
    """A standard model with the identity order: plain Kripke frames,
    where any valuation is an upset and any relation is coherent."""
    states = [f"s{i}" for i in range(n_states)]
    valuation = {a: frozenset(s for s in states if rng.random() < 0.5)
                 for a in atoms}
    return Model(states, rel.identity(states),
                 boxes=[random_relation(rng, states, 0.3)
                        for _ in range(n_boxes)],
                 valuation=valuation)


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
