"""Differential test of the relation kernel against the set-based code
it replaced.

compose, compose_all, transitive_closure and preorder_closure below are
the previous kripkit.relations versions, kept verbatim: they build the
result one pair at a time, with a successor map of sets and a
depth-first search per source.  The bit-row kernel must return the
same frozenset of pairs on every input, raise the same error, and give
every effective relation of the gallery and of random models of all
six flavors unchanged.
"""

import random
from typing import Iterable

import pytest

from kripkit import build_example, semantics
from kripkit import relations as rel
from kripkit.errors import FlavorError
from kripkit.model import _SHAPES, EK, FS, GPT, H, STANDARD, TENSE, Model
from kripkit.sampling import random_model

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
        assert (rel.preorder_closure(rels[0], carrier)
                == preorder_closure(rels[0], carrier)), seed


def test_arguments_are_iterated_once():
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    assert rel.compose(iter(pairs), iter(pairs)) == compose(pairs, pairs)
    assert rel.compose_all(iter(pairs), iter(pairs), iter(pairs)) == \
        compose_all(pairs, pairs, pairs)
    assert (rel.transitive_closure(iter([iter(pairs), iter([("d", "e")])]),
                                   reflexive=True, states=iter("abx"))
            == transitive_closure([pairs, [("d", "e")]], reflexive=True,
                                  states="abx"))
    assert (rel.preorder_closure(iter(pairs), iter("ab"))
            == preorder_closure(pairs, "ab"))


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


READERS = {"box": semantics.box_relation, "dia": semantics.dia_relation,
           "back_dia": semantics.back_dia_relation,
           "back_box": semantics.back_box_relation,
           "ck": lambda m, i: semantics.ck_relation(m, reflexive=i == 2),
           "left_converse": lambda m, i: semantics.left_converse(
               m.boxes[i - 1], m)}


def _effective(m) -> dict:
    """Every effective relation m's flavor interprets, or the error it
    raises, by reader and index 1-3."""
    out = {}
    for name, reader in READERS.items():
        for i in range(1, 4):
            try:
                out[name, i] = reader(m, i)
            except (FlavorError, IndexError) as exc:
                out[name, i] = str(exc)
    return out


def _reference(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the reference kernel in place of
    kripkit's."""
    with monkeypatch.context() as patch:
        for f in (compose, compose_all, transitive_closure, preorder_closure):
            patch.setattr(rel, f.__name__, f)
        return fn(*args, **kwargs)


GALLERY = [("wedge", ()), ("wedge_strict", ()), ("spines", (4,)),
           ("porcupine", (3,)), ("porcupine_trimmed", (3,)),
           ("omega_chain", (5,))]


@pytest.mark.parametrize("example", GALLERY,
                         ids=[f"{name}{params}" for name, params in GALLERY])
def test_effective_relations_match_reference_on_the_gallery(example,
                                                            monkeypatch):
    m = build_example(*example)
    assert m == _reference(monkeypatch, build_example, *example)
    # the gallery's relations, the order standing in where none is
    # stored, read under each flavor
    boxes, diamonds = m.boxes or (m.leq,), m.diamonds or (m.geq,)
    for flavor, (n_boxes, n_diamonds) in _SHAPES.items():
        m2 = Model(m.states, m.leq, boxes[:n_boxes], diamonds[:n_diamonds],
                   m.valuation, flavor)
        assert _effective(m2) == _reference(monkeypatch, _effective, m2)


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
        assert _effective(m) == _reference(monkeypatch, _effective, m)
