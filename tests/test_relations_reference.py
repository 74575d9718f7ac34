"""Differential test of the relation kernel against the set-based code
it replaced.

compose, compose_all and transitive_closure below are the previous
kripkit.relations versions, kept verbatim: they build the result one
pair at a time, with a successor map of sets and a depth-first search
per source.  The bit-row kernel must return the same frozenset of
pairs on every input and raise the same error.

The other frozenset helpers here (successors, preorder_closure,
identity, missing_transitivity, upward_closure and is_upset) are
verbatim copies of kripkit.relations helpers that nothing in the
package calls any more; the other reference tests decode with them.

Below them are the pair-based effective-relation readers semantics had
before the model's bit rows became its table, and the closing of
leq_gen Model.make did before it closed the rows itself, both kept
verbatim but for calling the reference algebra here.  Every effective
relation of the gallery and of random models of all six flavors, and
every order Model.make closes, must come out the same.

Between the two sit the bit-row primitives as they were before each
picked its method from the density of its rows: _transpose walking
every set bit, _compose_rows walking every row and _close_rows taking
the columns as an argument.  The primitives must give the same rows on
random square rows on both sides of the switch, and the models
model_from_dict builds and the truth sets truth_set computes must come
out the same with the references in their place.
"""

import random
from typing import Iterable

import pytest

from kripkit import build_example, semantics
from kripkit import relations as rel
from kripkit.errors import FlavorError
from kripkit.formula import Fragment
from kripkit.model import (_SHAPES, EK, FS, GPT, H, STANDARD, TENSE, Model,
                           model_from_dict, model_to_dict)
from kripkit.sampling import random_formula, random_model

Pair = tuple[str, str]
Relation = frozenset[Pair]


# ---------------------------------------------------------------------------
# The reference: the previous set-based relation algebra


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


def converse(r: Iterable[Pair]) -> Relation:
    return frozenset((b, a) for a, b in r)


def identity(states: Iterable[str]) -> Relation:
    return frozenset((s, s) for s in states)


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


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compose_rows(r: list[int], s: list[int]) -> list[int]:
    """Rows of the composition, first r then s, over one numbering."""
    out = []
    for row in r:
        acc = 0
        while row:
            low = row & -row
            acc |= s[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _transpose(rows: list[int]) -> list[int]:
    """Rows of the converse: bit i of entry j where rows[i] has bit j."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            out[j] |= bit
    return out


def _close_rows(rows: list[int], cols: list[int]) -> None:
    """Close rows transitively in place, by Warshall's algorithm ("A
    theorem on Boolean matrices", J. ACM 1962): for each state k in
    turn, every state that reaches k takes in the targets of k.  cols
    must be the transpose of rows and is kept in step, so that state k
    visits only the rows that reach it and a sparse relation costs far
    less than n^2 steps."""
    for k in range(len(rows)):
        row_k, col_k = rows[k], cols[k]
        if row_k and col_k:
            for i in _bits(col_k):
                rows[i] |= row_k
            for j in _bits(row_k):
                cols[j] |= col_k


# ---------------------------------------------------------------------------
# The reference: the previous pair-based readers and order closing


def make(cls, states, leq_gen, boxes=(), diamonds=(), valuation=None,
         flavor=STANDARD):
    """Build a model from order generators: leq_gen is closed
    reflexively and transitively over the carrier."""
    states = list(states)
    closed = preorder_closure([tuple(p) for p in leq_gen], states)
    return cls(states, closed, boxes, diamonds, valuation, flavor)


def left_converse(r: frozenset, m: Model) -> frozenset:
    """≥ ∘ r ∘ ≥ : the derived diamond relation of single-relation
    bi-intuitionistic models."""
    return compose_all(m.geq, r, m.geq)


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
        return compose(m.leq, _stored_box(m, index))
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
        return converse(_stored_box(m, index))
    raise FlavorError(f"flavor {m.flavor!r} does not interpret <|")


def back_box_relation(m: Model, index: int) -> frozenset:
    """Effective relation for |>index, which looks backward along the
    diamond relation."""
    if m.flavor == TENSE:
        return converse(_stored_dia(m, index))
    if m.flavor == GPT:
        return compose(m.leq, converse(_stored_dia(m, index)))
    if m.flavor == H:
        return compose_all(m.leq, converse(_stored_box(m, index)),
                           m.leq)
    raise FlavorError(f"flavor {m.flavor!r} does not interpret |>")


def ck_relation(m: Model, reflexive: bool = False) -> frozenset:
    """Chains of knowledge steps: the transitive closure of the union
    of all knowledge relations, reflexive on demand."""
    if m.flavor != EK:
        raise FlavorError(f"flavor {m.flavor!r} does not interpret C")
    return transitive_closure(m.boxes, reflexive=reflexive,
                              states=m.states)


# ---------------------------------------------------------------------------
# Random relations


def _relation(rng: random.Random, states: list[str]) -> Relation:
    """Empty, sparse, dense or self-loops only, on states."""
    shape = rng.randrange(4)
    if shape == 0:
        return frozenset()
    if shape == 1:
        return frozenset((rng.choice(states), rng.choice(states))
                         for _ in range(rng.randrange(1, len(states) + 2)))
    if shape == 2:
        density = rng.random()
        return frozenset((a, b) for a in states for b in states
                         if rng.random() < density)
    return frozenset((a, a) for a in states if rng.random() < 0.5)


def _case(seed: int) -> tuple[list[str], list[Relation], list[str]]:
    """1-12 states, up to three relations on them, and a carrier that
    can miss some of the related states and hold unrelated ones."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(rng.randint(1, 12))]
    rels = [_relation(rng, states) for _ in range(rng.randint(1, 3))]
    carrier = [s for s in states if rng.random() < 0.8]
    carrier += ["extra"] * rng.randrange(2)
    return states, rels, carrier


CASES = range(3000)


def test_compose_matches_reference_on_random_relations():
    for seed in CASES:
        _, rels, _ = _case(seed)
        r, s = rels[0], rels[-1]
        assert rel.compose(r, s) == compose(r, s), seed
        assert rel.compose_all(*rels) == compose_all(*rels), seed


def test_closures_match_reference_on_random_relations():
    for seed in CASES:
        _, rels, carrier = _case(seed)
        assert rel.transitive_closure(rels) == transitive_closure(rels), seed
        assert (rel.transitive_closure(rels, reflexive=False, states=carrier)
                == transitive_closure(rels, reflexive=False, states=carrier))
        assert (rel.transitive_closure(rels, reflexive=True, states=carrier)
                == transitive_closure(rels, reflexive=True, states=carrier))


def test_arguments_are_iterated_once():
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    assert rel.compose(iter(pairs), iter(pairs)) == compose(pairs, pairs)
    assert rel.compose_all(iter(pairs), iter(pairs), iter(pairs)) == \
        compose_all(pairs, pairs, pairs)
    assert (rel.transitive_closure(iter([iter(pairs), iter([("d", "e")])]),
                                   reflexive=True, states=iter("abx"))
            == transitive_closure([pairs, [("d", "e")]], reflexive=True,
                                  states="abx"))


def test_masks_decode_to_their_names():
    # sparse masks are walked bit by bit and dense ones read off their
    # digits; both must name the set bits in order
    rng = random.Random(5)
    names = [f"s{k}" for k in range(300)]
    for _ in range(2000):
        n = rng.choice((1, 8, 64, 65, 200, 300))
        mask = 0
        for _ in range(rng.choice((0, 1, 2, 5, n))):
            mask |= 1 << rng.randrange(n)
        want = [names[k] for k in range(n) if mask >> k & 1]
        assert list(rel._names(names, mask)) == want, mask


def test_reflexive_closure_needs_a_carrier():
    for rels in ([], [[("a", "b")]]):
        with pytest.raises(ValueError, match="explicit carrier"):
            rel.transitive_closure(rels, reflexive=True)
        with pytest.raises(ValueError, match="explicit carrier"):
            transitive_closure(rels, reflexive=True)
    assert rel.transitive_closure([]) == frozenset()
    assert rel.transitive_closure([], reflexive=True, states=[]) == frozenset()


# ---------------------------------------------------------------------------
# Effective relations


def _readers(box, dia, back_dia, back_box, ck, converse_of):
    return {"box": box, "dia": dia, "back_dia": back_dia,
            "back_box": back_box,
            "ck": lambda m, i: ck(m, reflexive=i == 2),
            "left_converse": lambda m, i: converse_of(m.boxes[i - 1], m)}


READERS = _readers(semantics.box_relation, semantics.dia_relation,
                   semantics.back_dia_relation, semantics.back_box_relation,
                   semantics.ck_relation, semantics.left_converse)
REFERENCE_READERS = _readers(box_relation, dia_relation, back_dia_relation,
                             back_box_relation, ck_relation, left_converse)


def _effective(m, readers=READERS) -> dict:
    """Every effective relation m's flavor interprets, or the error it
    raises, by reader and index 1-3."""
    out = {}
    for name, reader in readers.items():
        for i in range(1, 4):
            try:
                out[name, i] = reader(m, i)
            except (FlavorError, IndexError) as exc:
                out[name, i] = (type(exc), str(exc))
    return out


def _reference(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the reference algebra in place of
    kripkit's, and the reference closing in place of Model.make's."""
    with monkeypatch.context() as patch:
        for f in (compose, compose_all, transitive_closure):
            patch.setattr(rel, f.__name__, f)
        patch.setattr(Model, "make", classmethod(make))
        return fn(*args, **kwargs)


def _same_model(m: Model, ref: Model) -> None:
    assert m == ref
    assert (m.leq, m.boxes, m.diamonds) == (ref.leq, ref.boxes, ref.diamonds)
    assert model_to_dict(m) == model_to_dict(ref)
    up, down = successors(ref.leq), successors(converse(ref.leq))
    assert m.up_map == {x: frozenset(up.get(x, ())) for x in m.states}
    assert m.down_map == {x: frozenset(down.get(x, ())) for x in m.states}


GALLERY = [("wedge", ()), ("wedge_strict", ()), ("spines", (4,)),
           ("spines", (12,)), ("porcupine", (3,)),
           ("porcupine_trimmed", (3,)), ("omega_chain", (5,))]


@pytest.mark.parametrize("example", GALLERY,
                         ids=[f"{name}{params}" for name, params in GALLERY])
def test_effective_relations_match_reference_on_the_gallery(example,
                                                            monkeypatch):
    m = build_example(*example)
    _same_model(m, _reference(monkeypatch, build_example, *example))
    # the gallery's relations, the order standing in where none is
    # stored, read under each flavor
    boxes, diamonds = m.boxes or (m.leq,), m.diamonds or (m.geq,)
    for flavor, (n_boxes, n_diamonds) in _SHAPES.items():
        m2 = Model(m.states, m.leq, boxes[:n_boxes], diamonds[:n_diamonds],
                   m.valuation, flavor)
        assert _effective(m2) == _effective(m2, REFERENCE_READERS)


SIX = [(STANDARD, dict(n_boxes=2, n_diamonds=1)), (EK, dict(n_boxes=2)),
       (FS, {}), (GPT, dict(n_diamonds=1)), (TENSE, dict(n_diamonds=1)),
       (H, {})]


@pytest.mark.parametrize("flavor,kw", SIX, ids=[f for f, _ in SIX])
def test_effective_relations_match_reference_on_random_models(flavor, kw,
                                                               monkeypatch):
    for seed in range(40):
        rng = random.Random(f"relations/{flavor}/{seed}")
        args = dict(kw, n_states=rng.randint(1, 9),
                    strict=rng.random() < 0.5)
        m = random_model(random.Random(seed), flavor, **args)
        assert m == _reference(monkeypatch, random_model,
                               random.Random(seed), flavor, **args)
        assert _effective(m) == _effective(m, REFERENCE_READERS)
        # Model.make closes a generating set that is rarely transitive:
        # part of the order joined with the stored relations
        leq_gen = [p for p in sorted(m.leq) if rng.random() < 0.4]
        for r in m.boxes + m.diamonds:
            leq_gen += sorted(r)
        rng.shuffle(leq_gen)
        built = (m.states, leq_gen, m.boxes, m.diamonds, m.valuation, flavor)
        _same_model(Model.make(*built), make(Model, *built))


# ---------------------------------------------------------------------------
# Bit-row primitives


DENSITIES = (0, 0.02, 0.1, 0.25, 0.5, 1)


def _square_rows(rng: random.Random, n: int, density: float,
                 repeat: bool) -> list[int]:
    """n rows of n bits, each bit set with the given chance; with
    repeat, the rows are drawn from a few distinct ones, as the states
    of one cluster of an order share their row."""
    rows = [sum(1 << j for j in range(n) if rng.random() < density)
            for _ in range(n)]
    if repeat:
        rows = [rng.choice(rows[:rng.randint(1, 3)]) for _ in range(n)]
    return rows


def _rows_with(rng: random.Random, n: int, pairs: int) -> list[int]:
    """n rows of n bits holding exactly `pairs` set bits."""
    rows = [0] * n
    for cell in rng.sample(range(n * n), pairs):
        rows[cell // n] |= 1 << cell % n
    return rows


def _same_rows(rows: list[int], s: list[int]) -> None:
    """Each primitive on rows (and s) gives the reference's rows."""
    assert rel._transpose(rows) == _transpose(rows)
    assert rel._compose_rows(rows, s) == _compose_rows(rows, s)
    closed, ref = list(rows), list(rows)
    rel._close_rows(closed)
    _close_rows(ref, _transpose(ref))
    assert closed == ref


def test_row_primitives_match_reference_on_random_rows():
    rng = random.Random(16)
    for n in range(1, 71):
        for density in DENSITIES:
            for repeat in (False, True):
                rows = _square_rows(rng, n, density, repeat)
                s = _square_rows(rng, n, rng.choice(DENSITIES), False)
                _same_rows(rows, s)


def test_row_primitives_match_reference_at_the_density_switch():
    # rows switch method at a quarter of all pairs: one pair below, at
    # and one pair above it, and a chain, sparse but closing densely
    rng = random.Random(4)
    for n in (1, 2, 3, 7, 8, 31, 64, 65):
        edge = -(-n * n // 4)
        for pairs in (edge - 1, edge, edge + 1):
            if 0 <= pairs <= n * n:
                rows = _rows_with(rng, n, pairs)
                assert rel._dense(rows) == (pairs * 4 >= n * n)
                _same_rows(rows, _rows_with(rng, n, rng.randint(0, n * n)))
        chain = [1 << i + 1 for i in range(n - 1)] + [0]
        _same_rows(chain, chain)


def _rows_of(rng: random.Random, n: int, values: int, bits: int) -> list[int]:
    """n rows of n bits, each one of `values` distinct rows (as many as
    there are when fewer) that hold `bits` set bits apiece, so that
    the rows hold exactly n * bits pairs."""
    pool = {sum(1 << j for j in rng.sample(range(n), bits))
            for _ in range(4 * values)}
    pool = sorted(pool)[:values]
    return [pool[i % len(pool)] for i in rng.sample(range(n), n)]


def test_dense_closure_matches_reference_on_distinct_rows():
    # Dense rows are closed on their distinct values: one, a few and
    # all distinct, each row holding one bit fewer than a quarter of
    # the states (rounded up), that quarter, one bit more, or every
    # bit, so that the rows fall on both sides of the density switch
    # and, where 4 divides n, on it
    rng = random.Random(18)
    seen = set()
    for n in (1, 2, 4, 7, 8, 16, 30, 45, 64):
        quarter = -(-n // 4)
        for values in (1, 2, 3, n):
            for bits in {max(quarter - 1, 0), quarter, quarter + 1, n}:
                if bits > n:
                    continue
                rows = _rows_of(rng, n, values, bits)
                seen.add(rel._dense(rows))
                closed, ref = list(rows), list(rows)
                rel._close_rows(closed)
                _close_rows(ref, _transpose(ref))
                assert closed == ref, (n, values, bits)
    assert seen == {False, True}


def _truth_sets(data: dict, formulas: list, monkeypatch=None) -> list:
    """Rows of the model data loads into and the truth set of every
    formula on it, with the reference primitives if monkeypatch is
    given."""
    def run():
        m = model_from_dict(data)
        out = [m._leq_rows, m._box_rows, m._dia_rows,
               m.leq, m.boxes, m.diamonds]
        for f in formulas:
            try:
                out.append(semantics.truth_set(f, m))
            except FlavorError as exc:
                out.append(str(exc))
        return out
    if monkeypatch is None:
        return run()
    with monkeypatch.context() as patch:
        patch.setattr(rel, "_transpose", _transpose)
        patch.setattr(rel, "_compose_rows", _compose_rows)
        patch.setattr(rel, "_close_rows",
                      lambda rows: _close_rows(rows, _transpose(rows)))
        return run()


EVERYTHING = Fragment("biint", 2, 2, True)


@pytest.mark.parametrize("flavor,kw", SIX, ids=[f for f, _ in SIX])
def test_loading_and_truth_sets_match_reference_rows(flavor, kw,
                                                     monkeypatch):
    for seed in range(12):
        rng = random.Random(f"rows/{flavor}/{seed}")
        n = rng.choice((1, 2, 5, 12, 30))
        m = random_model(rng, flavor, n_states=n, strict=seed % 2 == 0, **kw)
        formulas = [random_formula(rng, EVERYTHING, 3, allow_ck=True)
                    for _ in range(15)]
        data = model_to_dict(m)
        assert (_truth_sets(data, formulas)
                == _truth_sets(data, formulas, monkeypatch))


@pytest.mark.parametrize("example", GALLERY,
                         ids=[f"{name}{params}" for name, params in GALLERY])
def test_loading_and_truth_sets_match_reference_rows_on_the_gallery(
        example, monkeypatch):
    rng = random.Random(str(example))
    formulas = [random_formula(rng, Fragment("biint", 1, 0, True), 3)
                for _ in range(15)]
    data = model_to_dict(build_example(*example))
    assert (_truth_sets(data, formulas)
            == _truth_sets(data, formulas, monkeypatch))
