"""Differential test of the equivalence oracle against two references.

_SideOps and bounded_equivalence_oracle below are a direct reference
oracle: one bitmask per model, every connective recomputed at each
call, and the cost-ordered heap whether or not a budget is given.
kripkit's oracle must return the same relation and the same exact
flag on every input and budget.

closure_oracle is the exact oracle the preorder refinement replaced:
it lists every definable mask with _closure, a verbatim copy of the
mask closure the oracle and close_algebra used before they moved to
the preorder.  It is faster than the heap, so it checks the exact
oracle on more and larger pairs; reference_close_algebra checks
close_algebra with it.
Pairs too large for either reference are checked against the
bisimulation fixpoint, which the exact oracle equals wherever the
Hennessy-Milner property holds.

reference_definable_preorder keeps verbatim, but for its name, the
preorder loop that applied every connective to every irreducible in
every round.  semantics._definable_preorder applies each connective to
each irreducible once and must give the same classes on random
generators and connectives over one or two models, and the oracle,
close_algebra and is_general_model must answer the same on top of
either.
"""

import heapq
import itertools
import random
from functools import reduce
from operator import or_

import pytest

import test_relations_reference as ref
from kripkit import Fragment, build_example
from kripkit import distinguish
from kripkit import relations as rel
from kripkit import semantics
from kripkit.bisim import conditions_for, greatest_bisimulation
from kripkit.distinguish import _Table
from kripkit.errors import FlavorError, ToolError
from kripkit.formula import Box, Ck, Dia, TBox, TDia
from kripkit.genframe import SetAlgebra, close_algebra, is_general_model
from kripkit.model import Model
from kripkit.sampling import random_model, random_upset
from kripkit.semantics import _refine

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
        raw = ref.successors(relation)
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


def _closure(generators: list[int], unary: list, arrows: list) -> list[int]:
    """The least set of masks holding the generators and closed under &
    and | and the given _Kernel connectives.  Each admitted mask meets
    every one admitted no later than itself, both ways round for the
    arrows, so every pair is combined exactly once.  The set can be
    exponentially large; close_algebra needs all of it, while the
    exact oracle only needs the preorder it induces and computes that
    directly."""
    members = list(dict.fromkeys(generators))
    complements = [~x for x in members]
    seen = set(members)
    tables = [_Table(arrow) for arrow in arrows]
    k = 0
    while k < len(members):
        a, not_a = members[k], complements[k]
        k += 1
        done = members[:k]
        fresh = {op(a) for op in unary}
        fresh.update([a & x for x in done])
        fresh.update([a | x for x in done])
        not_done = complements[:k]
        for table in tables:
            fresh.update([table[a & not_x] for not_x in not_done])
            fresh.update([table[x & not_a] for x in done])
        fresh -= seen
        seen |= fresh
        members.extend(fresh)
        complements.extend([~x for x in fresh])
    return members


def closure_oracle(m: Model, m2: Model, frag: Fragment):
    """The exact oracle as it was before the preorder refinement, with
    its budget branch left out and the connectives listed up front."""
    kernel = semantics._Kernel([m, m2])
    ops = list(semantics._connectives(frag))
    unary = [kernel.connective(*op) for op in ops if op[1] is not None]
    arrows = [kernel.connective(*op) for op in ops if op[1] is None]
    atoms = sorted(set(m.valuation) | set(m2.valuation))
    generators = [0, (1 << len(m.states) + len(m2.states)) - 1] + [
        semantics._mask(m, m.valuation.get(a, _EMPTY))
        | semantics._mask(m2, m2.valuation.get(a, _EMPTY)) << kernel.offsets[1]
        for a in atoms]
    closed, exact = _closure(generators, unary, arrows), True

    def profile(bit: int) -> tuple[int, ...]:
        return tuple(sig >> bit & 1 for sig in closed)

    by_profile: dict[tuple[int, ...], list[str]] = {}
    for j, y in enumerate(m2.states, kernel.offsets[1]):
        by_profile.setdefault(profile(j), []).append(y)
    pairs = {(x, y) for i, x in enumerate(m.states)
             for y in by_profile.get(profile(i), ())}
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
    monkeypatch.setattr(distinguish._Table, "CAP", 3)
    for name, params, name2, params2, frag in GALLERY:
        m, m2 = build_example(name, params), build_example(name2, params2)
        assert_same_as_reference(m, m2, frag)
    seen = []
    real_missing = distinguish._Table.__missing__

    def watched(table, key):
        value = real_missing(table, key)
        seen.append(len(table))
        return value

    monkeypatch.setattr(distinguish._Table, "__missing__", watched)
    # the exact oracle and close_algebra keep no table; a budgeted run does
    m, m2 = build_example("porcupine", (2,)), build_example(
        "porcupine_trimmed", (2,))
    distinguish.bounded_equivalence_oracle(m, m2, Fragment("biint", 0, 0), 20)
    assert seen and max(seen) <= 3


def assert_same_as_closure(m, m2, frag):
    want = closure_oracle(m, m2, frag)
    assert distinguish.bounded_equivalence_oracle(m, m2, frag) == want


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_exact_oracle_matches_closure_on_the_c04_corpus(row):
    # the pairs test_acceptance's criterion 04 checks
    _, flavor, frag, kw = row
    for i in range(100):
        rng = random.Random(40_000 + i)
        n = 4 + (i % 2)
        m = random_model(rng, flavor, n_states=n, strict=True, **kw)
        m2 = random_model(rng, flavor, n_states=n, strict=True, **kw)
        assert_same_as_closure(m, m2, frag)


LARGER_GALLERY = (
    [("wedge", (), "wedge_strict", (), Fragment(base, 1, 0))
     for base in ("int", "intdual", "biint")]
    + [("spines", (k,), "spines", (k + 1,), Fragment("int", 1, 0))
       for k in range(1, 8)]
    + [("porcupine", (n,), "porcupine_trimmed", (n,), Fragment(base, 0, 0))
       for n in (1, 2) for base in ("int", "intdual", "biint")])


@pytest.mark.parametrize("pair", LARGER_GALLERY,
                         ids=[f"{p[0]}{''.join(map(str, p[1]))}-{p[4].base}"
                              for p in LARGER_GALLERY])
def test_exact_oracle_matches_closure_on_the_gallery(pair):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    assert_same_as_closure(m, m2, frag)
    assert_same_as_closure(m2, m, frag)


NON_STRICT = [
    ("standard", dict(n_boxes=2, n_diamonds=1), 2, 1, False),
    ("fs", dict(), 1, 1, False),
    ("gpt", dict(), 1, 1, True),
    ("tense", dict(), 1, 1, True),
    ("h", dict(), 1, 1, True),
    ("ek", dict(n_boxes=2), 2, 0, False),
]


@pytest.mark.parametrize("row", NON_STRICT, ids=[row[0] for row in NON_STRICT])
def test_exact_oracle_matches_closure_on_non_strict_pairs(row):
    flavor, kw, boxes, diamonds, tense = row
    bases = ("int", "intdual", "biint")
    for i in range(36):
        rng = random.Random(70_000 + i)
        # backward operators need biint, so only biint rows use them
        frag = Fragment(bases[i % 3], boxes, diamonds, tense and i % 3 == 2)
        atoms = ("p", "q")[:1 + i % 2]
        m = random_model(rng, flavor, n_states=2 + i % 4, atoms=atoms, **kw)
        m2 = random_model(rng, flavor, n_states=2 + (i // 4) % 4,
                          atoms=atoms, **kw)
        assert_same_as_closure(m, m2, frag)
        # two random models seldom share a class; a model and itself do
        assert_same_as_closure(m, m, frag)


# Strictly condensed pairs too large for either reference: there the
# exact oracle must be the bisimulation fixpoint, the Hennessy-Milner
# property, whichever model comes first.
LARGE = [
    ("porcupine", (3,), "porcupine_trimmed", (3,), Fragment("biint", 0, 0)),
    ("porcupine", (4,), "porcupine_trimmed", (4,), Fragment("biint", 0, 0)),
    ("spines", (9,), "spines", (10,), Fragment("int", 1, 0)),
    ("spines", (12,), "spines", (13,), Fragment("int", 1, 0)),
]


@pytest.mark.parametrize("pair", LARGE, ids=[f"{p[0]}{p[1][0]}" for p in LARGE])
def test_exact_oracle_is_the_fixpoint_on_large_gallery_pairs(pair):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    for left, right in ((m, m2), (m2, m)):
        fixpoint, _ = greatest_bisimulation(
            left, right, conditions_for(frag, left.flavor))
        got = distinguish.bounded_equivalence_oracle(left, right, frag)
        assert got == (fixpoint, True)


def reference_close_algebra(m: Model, generators, ops) -> SetAlgebra:
    """close_algebra as it was before the preorder refinement, on
    valid input: the mask closure of the generators, 0 and the
    carrier under the named operators."""
    kernel = semantics._Kernel([m])
    entries = [semantics._operator(op) for op in ops]
    unary = [kernel.connective(*e) for e in entries if e[1] is not None]
    arrows = [kernel.connective(*e) for e in entries if e[1] is None]
    masks = [0, (1 << len(m.states)) - 1]
    masks += [semantics._mask(m, g) for g in generators]
    members = _closure(masks, unary, arrows)
    return SetAlgebra(frozenset(m.states[i] for i in rel._bits(a))
                      for a in members)


def interpreted_ops(m: Model) -> list[str]:
    """Every operator name the model can interpret."""
    bars = len(m.boxes) if m.flavor in ("standard", "ek") else 1
    dias = {"standard": len(m.diamonds), "ek": 0}.get(m.flavor, 1)
    return (["arrow", "coarrow"]
            + [f"boxbar_{i}" for i in range(1, bars + 1)]
            + [f"diabar_{j}" for j in range(1, dias + 1)])


def assert_close_algebra_matches_closure(m, generators):
    ops = interpreted_ops(m)
    for r in range(len(ops) + 1):
        for subset in itertools.combinations(ops, r):
            want = reference_close_algebra(m, generators, subset)
            assert close_algebra(m, generators, subset) == want, (m, subset)


ALGEBRA_GALLERY = [("porcupine", (3,)), ("porcupine_trimmed", (3,)),
                   ("spines", (5,)), ("omega_chain", (8,))]


@pytest.mark.parametrize("example", ALGEBRA_GALLERY,
                         ids=[f"{n}{p[0]}" for n, p in ALGEBRA_GALLERY])
def test_close_algebra_matches_closure_on_the_gallery(example):
    m = build_example(*example)
    assert_close_algebra_matches_closure(
        m, [xs for _, xs in sorted(m.valuation.items())])


ALGEBRA_ROWS = [
    ("standard", dict(n_boxes=2, n_diamonds=1)),
    ("fs", dict()),
    ("gpt", dict()),
    ("tense", dict()),
    ("h", dict()),
    ("ek", dict(n_boxes=2)),
]


@pytest.mark.parametrize("row", ALGEBRA_ROWS,
                         ids=[row[0] for row in ALGEBRA_ROWS])
def test_close_algebra_matches_closure_on_random_models(row):
    flavor, kw = row
    for i in range(10):
        rng = random.Random(90_000 + i)
        m = random_model(rng, flavor, n_states=6, strict=i % 2 == 0, **kw)
        generators = [xs for _, xs in sorted(m.valuation.items())]
        generators.append(random_upset(rng, m.leq, m.states))
        assert_close_algebra_matches_closure(m, generators)


def test_close_algebra_on_porcupine_5():
    m = build_example("porcupine", (5,))
    generators = [xs for _, xs in sorted(m.valuation.items())]
    assert len(close_algebra(m, generators, ["arrow", "coarrow"])) == 5041


# ---------------------------------------------------------------------------
# The definable preorder, semi-naive against the loop it replaced


def reference_definable_preorder(n: int, generators: list[int],
                                 modal: list, arrows: list) -> dict[int, int]:
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


def _outcome(fn, *args):
    """A call's result, or the type and text of the ToolError it
    raised, so that refusals are compared too."""
    try:
        return ("ok", fn(*args))
    except ToolError as exc:
        return (type(exc).__name__, str(exc))


# Every table entry some flavor interprets, as (key, index).
ENTRIES = ([("imp", None), ("sub", None)]
           + [(op, i) for op in (Box, Dia, TDia, TBox) for i in (1, 2)]
           + [(Ck, False), (Ck, True)])


def _random_generators(rng, models, kernel) -> list[int]:
    """Random upsets of each model side by side, and random masks."""
    n = sum(len(m.states) for m in models)
    out = []
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.7:
            out.append(sum(
                semantics._mask(m, random_upset(rng, m.leq, m.states))
                << shift for m, shift in zip(models, kernel.offsets)))
        else:
            out.append(rng.getrandbits(n))
    return out


def assert_same_preorder(rng, models, rounds=6):
    kernel = semantics._Kernel(models)
    n = sum(len(m.states) for m in models)
    interpreted = []
    for key, index in ENTRIES:
        try:
            interpreted.append((key, index, kernel.connective(key, index)))
        except FlavorError:
            pass
    for _ in range(rounds):
        chosen = [e for e in interpreted if rng.random() < 0.5]
        rng.shuffle(chosen)
        modal = [(op, semantics._MODAL[key]) for key, index, op in chosen
                 if index is not None and key in semantics._MODAL]
        arrows = [op for key, index, op in chosen if key in ("imp", "sub")]
        generators = _random_generators(rng, models, kernel)
        want = reference_definable_preorder(n, generators, modal, arrows)
        got = semantics._definable_preorder(n, generators, modal, arrows)
        assert set(got.items()) == set(want.items()), [k for k, *_ in chosen]


FLAVOR_ROWS = [
    ("standard", dict(n_boxes=2, n_diamonds=1)),
    ("fs", dict()),
    ("gpt", dict()),
    ("tense", dict()),
    ("h", dict()),
    ("ek", dict(n_boxes=2)),
]


@pytest.mark.parametrize("row", FLAVOR_ROWS,
                         ids=[row[0] for row in FLAVOR_ROWS])
def test_semi_naive_preorder_matches_reference_on_random_models(row):
    flavor, kw = row
    for i in range(16):
        rng = random.Random(83_000 + i)
        m = random_model(rng, flavor, n_states=1 + (5 * i) % 12,
                         strict=i % 3 != 2, **kw)
        if i % 2:
            models = [m]
        else:
            models = [m, random_model(rng, flavor, n_states=1 + (7 * i) % 12,
                                      strict=i % 4 != 1, **kw)]
        assert_same_preorder(rng, models)


PREORDER_GALLERY = [
    ("wedge", ()), ("wedge_strict", ()), ("spines", (4,)),
    ("porcupine", (3,)), ("porcupine_trimmed", (3,)), ("omega_chain", (6,)),
]


@pytest.mark.parametrize("example", PREORDER_GALLERY,
                         ids=[f"{n}{''.join(map(str, p))}"
                              for n, p in PREORDER_GALLERY])
def test_semi_naive_preorder_matches_reference_on_the_gallery(example):
    m = build_example(*example)
    rng = random.Random(84_000)
    assert_same_preorder(rng, [m])
    for other in PREORDER_GALLERY:
        m2 = build_example(*other)
        if m2.flavor == m.flavor:
            assert_same_preorder(rng, [m, m2], rounds=2)


def _both_ways(monkeypatch, fn, *args):
    """fn's outcome with the semi-naive preorder and with the
    reference loop; they must agree."""
    got = _outcome(fn, *args)
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "_definable_preorder",
                      reference_definable_preorder)
        want = _outcome(fn, *args)
    assert got == want, args[2:]
    return got


@pytest.mark.parametrize("row", NON_STRICT, ids=[row[0] for row in NON_STRICT])
def test_oracle_is_the_same_on_either_preorder(row, monkeypatch):
    flavor, kw, boxes, diamonds, tense = row
    bases = ("int", "intdual", "biint")
    for i in range(24):
        rng = random.Random(85_000 + i)
        frag = Fragment(bases[i % 3], rng.randrange(boxes + 1),
                        rng.randrange(diamonds + 1), tense and i % 3 == 2)
        m = random_model(rng, flavor, n_states=2 + i % 9, **kw)
        m2 = random_model(rng, flavor, n_states=2 + (5 * i) % 9, **kw)
        _both_ways(monkeypatch, distinguish.bounded_equivalence_oracle,
                   m, m2, frag)
    for name, params, name2, params2, frag in LARGER_GALLERY:
        m, m2 = build_example(name, params), build_example(name2, params2)
        _both_ways(monkeypatch, distinguish.bounded_equivalence_oracle,
                   m, m2, frag)


@pytest.mark.parametrize("row", ALGEBRA_ROWS,
                         ids=[row[0] for row in ALGEBRA_ROWS])
def test_genframe_is_the_same_on_either_preorder(row, monkeypatch):
    flavor, kw = row
    frags = [Fragment(base, 1, 0) for base in ("int", "intdual", "biint")]
    frags += [Fragment("biint", 0, 1), Fragment("biint", 1, 1)]
    for i in range(8):
        rng = random.Random(86_000 + i)
        m = random_model(rng, flavor, n_states=3 + i % 8,
                         strict=i % 2 == 0, **kw)
        ops = interpreted_ops(m)
        generators = [xs for _, xs in sorted(m.valuation.items())]
        generators.append(random_upset(rng, m.leq, m.states))
        for _ in range(4):
            subset = [op for op in ops if rng.random() < 0.5]
            got = _both_ways(monkeypatch, close_algebra, m, generators,
                             subset)
            if got[0] != "ok":
                continue
            for frag in frags:
                _both_ways(monkeypatch, is_general_model, m, got[1], frag)
                # one set fewer: usually no longer closed
                smaller = SetAlgebra(list(got[1])[:-2] + [m.state_set])
                _both_ways(monkeypatch, is_general_model, m, smaller, frag)

