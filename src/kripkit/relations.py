"""Binary relation algebra over small finite carriers.

Relations are frozensets of (source, target) pairs of state names.
Composition is written left to right: a pair (x, y) is in
compose(r, s) when some u has x r u and u s y.  All the frame
conditions in this package are phrased with that convention, so keep
it in mind when reading inclusions like compose(leq, r) <= compose(r, leq).

The kernel underneath is bit rows: states numbered 0..n-1, and a
relation held as a list whose entry i is the mask of state i's
targets, so a path of length two costs one | on a word instead of one
set insertion.  A Model keeps its order and stored relations this way
(numbered in sorted state order), and semantics derives every
effective relation from those rows with _compose_rows, _transpose and
_close_rows; model surgery and sampling build their models on the
same three.  The frozenset functions are public API, and inside the
package only validate's coherence and condensation tests still call
compose and compose_all.  compose and transitive_closure number the
states as they meet them and run on the same kind of rows.
Frozensets of pairs appear only at the boundary, when a result is
returned: _row_pairs walks each row's set bits, one step per pair,
and _names reads a mask into state names, bit by bit when it is
sparse and off its binary digits otherwise.

Each of the three row primitives picks its method from what its input
shows, whether the square rows hold at least a quarter of all pairs
(_dense).  A method that walks set bits costs a step per pair, one
that works a row or a digit at a time costs a step per cell at most,
and at a quarter the second is already the cheaper:

    _transpose     dense: fixed-width binary strings transposed by zip;
                   sparse: one step per set bit
    _close_rows    dense: Warshall on the distinct rows (equal rows
                   stay equal at every step), a pass over them per
                   state;
                   sparse: the column-guided walk, which visits only
                   the rows that reach each state
    _compose_rows  dense: each distinct row composed once (the states
                   of a cluster of the order share their rows);
                   sparse: every row walked where it stands
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

Pair = tuple[str, str]
Relation = frozenset[Pair]


def converse(r: Iterable[Pair]) -> Relation:
    return frozenset((b, a) for a, b in r)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# bin() digits of a mask, low bit first, as flags compress can read
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _names(names: Sequence[str], mask: int) -> Iterable[str]:
    """names[k] for every bit k of mask, lowest first.  A sparse mask
    is taken apart bit by bit, at a cost per bit that grows with the
    mask's length; a denser one is read off its binary digits in one
    pass, at a cost that grows with its length alone."""
    if mask.bit_count() * 64 < mask.bit_length() + 256:
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(names[top])
            mask ^= 1 << top
        out.reverse()
        return out
    return compress(names, format(mask, "b")[::-1].encode().translate(_FLAGS))


def _row_pairs(rows: Iterable[tuple[str, int]],
               names: Sequence[str]) -> Iterator[Pair]:
    """The pairs of bit rows: (a, names[k]) for every bit k of a's row."""
    for a, row in rows:
        for k in _bits(row):
            yield a, names[k]


def _dense(rows: list[int]) -> bool:
    """Whether square rows hold at least a quarter of all pairs: the
    one observation each row primitive below picks its method by."""
    return sum(map(int.bit_count, rows)) * 4 >= len(rows) ** 2


def _image(row: int, s: list[int]) -> int:
    """The OR of s's rows at the set bits of row."""
    acc = 0
    while row:
        low = row & -row
        acc |= s[low.bit_length() - 1]
        row ^= low
    return acc


def _compose_rows(r: list[int], s: list[int]) -> list[int]:
    """Rows of the composition, first r then s, over one numbering.
    Dense rows repeat (the states of a cluster of the order share
    their row in it and in every relation that absorbs it), so each
    distinct one is composed once; a sparse row is walked where it
    stands, since hashing it would cost more than its few bits."""
    if _dense(r):
        images = {row: _image(row, s) for row in set(r)}
        return list(map(images.__getitem__, r))
    return [_image(row, s) for row in r]


def _transpose(rows: list[int]) -> list[int]:
    """Rows of the converse: bit i of entry j where rows[i] has bit j.
    Dense square rows are written out as fixed-width binary strings
    and transposed with zip, a cost per cell at C speed; sparse ones
    are walked one set bit at a time, a cost per pair."""
    n = len(rows)
    if _dense(rows):
        width = f"0{n}b"
        # the digits of row i, last row first, so that the column of
        # digit j reads as the binary numeral of entry n - 1 - j
        digits = [format(row, width) for row in reversed(rows)]
        out = [int("".join(column), 2) for column in zip(*digits)]
        out.reverse()
        return out
    out = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            out[j] |= bit
    return out


def _close_rows(rows: list[int]) -> None:
    """Close square rows transitively in place, by Warshall's
    algorithm ("A theorem on Boolean matrices", J. ACM 1962): for each
    state k in turn, every state that reaches k takes in the targets of
    k.  A step maps each row to a value that depends on the row alone,
    so equal rows stay equal throughout.  Dense rows repeat (the states
    of a cluster of the order share their row), so they take the steps
    on their distinct values only, n passes of one test per value, and
    each state reads its row back at the end.  Sparse rows keep the
    columns (the transpose) in step, so that state k visits only the
    rows that reach it and a relation such as a long chain costs far
    less than n^2 steps."""
    if _dense(rows):
        place: dict[int, int] = {}  # each distinct row's place
        at = [place.setdefault(row, len(place)) for row in rows]
        distinct = list(place)
        for k, p in enumerate(at):
            row_k, bit = distinct[p], 1 << k
            distinct = [row | row_k if row & bit else row
                        for row in distinct]
        rows[:] = [distinct[p] for p in at]
        return
    cols = _transpose(rows)
    for k in range(len(rows)):
        row_k, col_k = rows[k], cols[k]
        if row_k and col_k:
            for i in _bits(col_k):
                rows[i] |= row_k
            for j in _bits(row_k):
                cols[j] |= col_k


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
    does not determine it.  The union is closed on bit rows by
    _close_rows.
    """
    if reflexive and states is None:
        raise ValueError("reflexive closure needs an explicit carrier")
    number: dict[str, int] = {}  # each state's bit, given on first meeting
    targets: dict[int, int] = {}  # i -> mask of the targets of state i
    for r in rels:
        for a, b in r:
            i = number.setdefault(a, len(number))
            j = number.setdefault(b, len(number))
            targets[i] = targets.get(i, 0) | 1 << j
    rows = [targets.get(i, 0) for i in range(len(number))]
    _close_rows(rows)
    names = list(number)
    closed = _row_pairs(zip(names, rows), names)
    if not reflexive:
        return frozenset(closed)
    return frozenset((*closed, *((s, s) for s in states)))


def upward_closure(leq: Iterable[Pair], xs: Iterable[str]) -> frozenset[str]:
    base = set(xs)
    return frozenset(base | {b for a, b in leq if a in base})
