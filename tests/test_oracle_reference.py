"""Differential test of the equivalence oracle against a reference.

_SideOps and bounded_equivalence_oracle below are a direct reference
oracle: one bitmask per model, every connective recomputed at each
call, and the cost-ordered heap whether or not a budget is given.
kripkit's oracle must return the same relation and the same exact
flag on every input and budget.
"""

import heapq
import random

import pytest

from kripkit import Fragment, build_example
from kripkit import distinguish
from kripkit import relations as rel
from kripkit import semantics
from kripkit.model import Model
from kripkit.sampling import random_model

_EMPTY = frozenset()


class _SideOps:
    """Bitmask semantics for one model: every fragment connective as
    an integer operation, states numbered by sorted order."""

    def __init__(self, m: Model, frag: Fragment):
        self.m = m
        self.index = {s: i for i, s in enumerate(m.states)}
        self.full = (1 << len(m.states)) - 1
        self.up = [self.mask(m.up_map[s]) for s in m.states]
        self.down = [self.mask(m.down_map[s]) for s in m.states]
        self.box_succ = {i: self._succ_masks(semantics.box_relation(m, i))
                         for i in range(1, frag.n_boxes + 1)}
        self.dia_succ = {j: self._succ_masks(semantics.dia_relation(m, j))
                         for j in range(1, frag.m_diamonds + 1)}
        self.tdia_succ = {}
        self.tbox_succ = {}
        if frag.tense:
            self.tdia_succ = {
                i: self._succ_masks(semantics.back_dia_relation(m, i))
                for i in range(1, frag.n_boxes + 1)}
            self.tbox_succ = {
                j: self._succ_masks(semantics.back_box_relation(m, j))
                for j in range(1, frag.m_diamonds + 1)}

    def mask(self, xs) -> int:
        out = 0
        for x in xs:
            out |= 1 << self.index[x]
        return out

    def _succ_masks(self, relation) -> list[int]:
        raw = rel.successors(relation)
        return [self.mask(raw.get(s, _EMPTY)) for s in self.m.states]

    def imp(self, a: int, b: int) -> int:
        return sum(1 << i for i, up in enumerate(self.up)
                   if not (up & a & ~b))

    def sub(self, a: int, b: int) -> int:
        return sum(1 << i for i, down in enumerate(self.down)
                   if down & a & ~b)

    def forall(self, succ: list[int], a: int) -> int:
        return sum(1 << i for i, s in enumerate(succ) if not (s & ~a))

    def exists(self, succ: list[int], a: int) -> int:
        return sum(1 << i for i, s in enumerate(succ) if s & a)


def bounded_equivalence_oracle(m: Model, m2: Model, frag: Fragment,
                               budget: int | None = None):
    """Which state pairs agree on every fragment formula, decided by
    saturating formula semantics over both models at once.

    Formulas are explored as signature pairs (truth set here, truth
    set there), cheapest connective count first, so two formulas with
    the same signatures are never both expanded.  The budget caps how
    many derived signatures are admitted: exhausting the worklist
    first means the answer is exact; hitting the budget means the
    returned relation may still be too coarse.  Budget 0 gives plain
    atom agreement.

    Returns (relation, exact).
    """
    left, right = _SideOps(m, frag), _SideOps(m2, frag)
    atoms = sorted(set(m.valuation) | set(m2.valuation))

    unary = []
    for i in sorted(left.box_succ):
        unary.append((lambda a, i=i: left.forall(left.box_succ[i], a),
                      lambda a, i=i: right.forall(right.box_succ[i], a)))
    for j in sorted(left.dia_succ):
        unary.append((lambda a, j=j: left.exists(left.dia_succ[j], a),
                      lambda a, j=j: right.exists(right.dia_succ[j], a)))
    for i in sorted(left.tdia_succ):
        unary.append((lambda a, i=i: left.exists(left.tdia_succ[i], a),
                      lambda a, i=i: right.exists(right.tdia_succ[i], a)))
    for j in sorted(left.tbox_succ):
        unary.append((lambda a, j=j: left.forall(left.tbox_succ[j], a),
                      lambda a, j=j: right.forall(right.tbox_succ[j], a)))
    binary = [(lambda a, b: a[0] & b[0], lambda a, b: a[1] & b[1], True),
              (lambda a, b: a[0] | b[0], lambda a, b: a[1] | b[1], True)]
    if frag.base in ("int", "biint"):
        binary.append((lambda a, b: left.imp(a[0], b[0]),
                       lambda a, b: right.imp(a[1], b[1]), False))
    if frag.base in ("intdual", "biint"):
        binary.append((lambda a, b: left.sub(a[0], b[0]),
                       lambda a, b: right.sub(a[1], b[1]), False))

    closed: dict[tuple[int, int], int] = {}
    for sig in ([(0, 0), (left.full, right.full)]
                + [(left.mask(m.valuation.get(a, _EMPTY)),
                    right.mask(m2.valuation.get(a, _EMPTY))) for a in atoms]):
        closed.setdefault(sig, 0)

    heap: list = []
    tick = 0
    cheapest_pushed: dict[tuple[int, int], int] = {}

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
        for fl, fr in unary:
            push((fl(sig[0]), fr(sig[1])), cost + 1)
        for fl, fr, commutes in binary:
            for other, other_cost in list(closed.items()):
                push((fl(sig, other), fr(sig, other)), cost + other_cost + 1)
                if not commutes:
                    push((fl(other, sig), fr(other, sig)),
                         cost + other_cost + 1)

    for sig in list(closed):
        expand(sig)

    derived = 0
    exact = True
    while heap:
        cost, _, sig = heapq.heappop(heap)
        if sig in closed:
            continue
        if budget is not None and derived >= budget:
            exact = False
            break
        closed[sig] = cost
        derived += 1
        expand(sig)

    pairs = set()
    for x, ix in left.index.items():
        for y, iy in right.index.items():
            if all((sig_l >> ix) & 1 == (sig_r >> iy) & 1
                   for sig_l, sig_r in closed):
                pairs.add((x, y))
    return frozenset(pairs), exact


BUDGETS = (None, 0, 5, 20)

ROWS = [
    ("int", "standard", Fragment("int", 1, 0),
     dict(n_boxes=1, n_diamonds=0)),
    ("intdual", "standard", Fragment("intdual", 0, 1),
     dict(n_boxes=0, n_diamonds=1)),
    ("biint", "standard", Fragment("biint", 1, 1),
     dict(n_boxes=1, n_diamonds=1)),
    ("tense", "tense", Fragment("biint", 1, 1, True), dict()),
    ("h", "h", Fragment("biint", 1, 1, True), dict()),
    ("ek", "ek", Fragment("int", 2, 0), dict(n_boxes=2)),
]

GALLERY = [
    ("wedge", (), "wedge_strict", (), Fragment("biint", 1, 0)),
    ("spines", (2,), "spines", (3,), Fragment("int", 1, 0)),
    ("porcupine", (1,), "porcupine_trimmed", (1,), Fragment("biint", 0, 0)),
]


def assert_same_as_reference(m, m2, frag):
    for budget in BUDGETS:
        want = bounded_equivalence_oracle(m, m2, frag, budget)
        got = distinguish.bounded_equivalence_oracle(m, m2, frag, budget)
        assert got == want, budget


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_oracle_matches_reference_on_random_pairs(row):
    _, flavor, frag, kw = row
    for i in range(12):
        rng = random.Random(60_000 + i)
        n = 3 + (i % 2)
        m = random_model(rng, flavor, n_states=n, strict=True, **kw)
        m2 = random_model(rng, flavor, n_states=n, strict=True, **kw)
        assert_same_as_reference(m, m2, frag)


@pytest.mark.parametrize("pair", GALLERY, ids=[p[0] for p in GALLERY])
def test_oracle_matches_reference_on_the_gallery(pair):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    assert_same_as_reference(m, m2, frag)
    assert_same_as_reference(m2, m, frag)


def test_oracle_matches_reference_when_its_tables_overflow(monkeypatch):
    # a tiny cap makes the connective tables empty themselves often
    monkeypatch.setattr(semantics._Table, "CAP", 3)
    for name, params, name2, params2, frag in GALLERY:
        m, m2 = build_example(name, params), build_example(name2, params2)
        assert_same_as_reference(m, m2, frag)
    seen = []
    real_missing = semantics._Table.__missing__

    def watched(table, key):
        value = real_missing(table, key)
        seen.append(len(table))
        return value

    monkeypatch.setattr(semantics._Table, "__missing__", watched)
    m, m2 = build_example("porcupine", (2,)), build_example(
        "porcupine_trimmed", (2,))
    distinguish.bounded_equivalence_oracle(m, m2, Fragment("biint", 0, 0))
    assert seen and max(seen) <= 3
