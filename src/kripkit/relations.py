"""Binary relation algebra over small finite carriers.

Relations are frozensets of (source, target) pairs of state names.
Composition is written left to right: a pair (x, y) is in
compose(r, s) when some u has x r u and u s y.  All the frame
conditions in this package are phrased with that convention, so keep
it in mind when reading inclusions like compose(leq, r) <= compose(r, leq).

compose and transitive_closure work on bit rows inside: they number
the states as they meet them and keep each source's targets as one
integer mask, so a path of length two costs one | on a word instead
of one set insertion.  Frozensets of pairs appear only at the
boundary, when a result is returned.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_pairs(rows: Iterable[tuple[str, int]],
               names: list[str]) -> Iterator[Pair]:
    """The pairs of bit rows: (a, names[k]) for every bit k of a's row."""
    for a, row in rows:
        for k in _bits(row):
            yield a, names[k]


def compose(r: Iterable[Pair], s: Iterable[Pair]) -> Relation:
    """Relational composition, first r then s."""
    number: dict[str, int] = {}  # each target's bit, given on first meeting
    row_of: dict[str, int] = {}  # u -> mask of its s-successors
    for u, b in s:
        row_of[u] = row_of.get(u, 0) | 1 << number.setdefault(b, len(number))
    rows: dict[str, int] = {}  # a -> OR of the rows of its r-successors
    for a, u in r:
        row = row_of.get(u)
        if row:
            rows[a] = rows.get(a, 0) | row
    return frozenset(_row_pairs(rows.items(), list(number)))


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
    does not determine it.  The union is closed by Warshall's
    algorithm on bit rows ("A theorem on Boolean matrices", J. ACM
    1962): for each state k in turn, every state that reaches k takes
    in the targets of k.
    """
    if reflexive and states is None:
        raise ValueError("reflexive closure needs an explicit carrier")
    number: dict[str, int] = {}  # each state's bit, given on first meeting
    rows: dict[int, int] = {}  # i -> mask of the targets of state i
    cols: dict[int, int] = {}  # j -> mask of the sources of state j
    for r in rels:
        for a, b in r:
            i = number.setdefault(a, len(number))
            j = number.setdefault(b, len(number))
            rows[i] = rows.get(i, 0) | 1 << j
            cols[j] = cols.get(j, 0) | 1 << i
    # Keeping the columns too lets state k visit only the rows that
    # reach it, so a sparse union costs far less than n^2 steps.
    for k in range(len(number)):
        row_k, col_k = rows.get(k), cols.get(k)
        if row_k and col_k:
            for i in _bits(col_k):
                rows[i] |= row_k
            for j in _bits(row_k):
                cols[j] |= col_k
    names = list(number)
    closed = _row_pairs(((names[i], row) for i, row in rows.items()),
                        names)
    if not reflexive:
        return frozenset(closed)
    return frozenset((*closed, *((s, s) for s in states)))


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
