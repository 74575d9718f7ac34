"""Binary relation algebra over small finite carriers.

Relations are frozensets of (source, target) pairs of state names.
Composition is written left to right: a pair (x, y) is in
compose(r, s) when some u has x r u and u s y.  All the frame
conditions in this package are phrased with that convention, so keep
it in mind when reading inclusions like compose(leq, r) <= compose(r, leq).
"""

from __future__ import annotations

from typing import Iterable

Pair = tuple[str, str]
Relation = frozenset[Pair]


def identity(states: Iterable[str]) -> Relation:
    return frozenset((s, s) for s in states)


def converse(r: Iterable[Pair]) -> Relation:
    return frozenset((b, a) for a, b in r)


def successors(r: Iterable[Pair]) -> dict[str, set[str]]:
    """Successor map of a relation: state -> set of targets."""
    succ: dict[str, set[str]] = {}
    for a, b in r:
        succ.setdefault(a, set()).add(b)
    return succ


def compose(r: Iterable[Pair], s: Iterable[Pair]) -> Relation:
    """Relational composition, first r then s."""
    by_source = successors(s)
    out = set()
    for a, u in r:
        for b in by_source.get(u, ()):
            out.add((a, b))
    return frozenset(out)


def compose_all(*rels: Iterable[Pair]) -> Relation:
    rels = tuple(rels)
    acc = frozenset(rels[0])
    for r in rels[1:]:
        acc = compose(acc, r)
    return acc


def transitive_closure(rels: Iterable[Iterable[Pair]],
                       reflexive: bool = False,
                       states: Iterable[str] | None = None) -> Relation:
    """Transitive closure of the union of rels.

    By default this is the positive closure (paths of one or more
    steps).  With reflexive=True the identity on `states` is added;
    the carrier must then be given explicitly because the union alone
    does not determine it.
    """
    pairs: set[Pair] = set()
    for r in rels:
        pairs.update(r)
    succ = successors(pairs)
    closed: set[Pair] = set()
    for start in list(succ):
        # DFS from each source that has at least one outgoing step.
        seen: set[str] = set()
        stack = list(succ.get(start, ()))
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            closed.add((start, v))
            stack.extend(succ.get(v, ()))
    if reflexive:
        if states is None:
            raise ValueError("reflexive closure needs an explicit carrier")
        closed.update((s, s) for s in states)
    return frozenset(closed)


def preorder_closure(pairs: Iterable[Pair], states: Iterable[str]) -> Relation:
    """Reflexive-transitive closure over the given carrier."""
    return transitive_closure([pairs], reflexive=True, states=states)


def missing_transitivity(r: frozenset[Pair]) -> Pair | None:
    """First (in sorted order) composable pair whose composite is missing,
    or None when r is transitive."""
    succ = successors(r)
    for a, u in sorted(r):
        for b in sorted(succ.get(u, ())):
            if (a, b) not in r:
                return (a, b)
    return None


def upward_closure(leq: Iterable[Pair], xs: Iterable[str]) -> frozenset[str]:
    base = set(xs)
    return frozenset(base | {b for a, b in leq if a in base})


def is_upset(leq: Iterable[Pair], xs: frozenset[str]) -> bool:
    return all(b in xs for a, b in leq if a in xs)
