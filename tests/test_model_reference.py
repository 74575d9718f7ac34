"""Differential test of the Model constructor against the one before
the model held its relations as bit rows.

OldModel below keeps the previous constructor verbatim, with its
equality and the previous model_to_dict: it stored leq and every
stored relation as a frozenset of pairs.  On every input the
constructor must give the same leq, boxes, diamonds, equality and
dictionary, or raise the same error with the same text.  Each bad
input below holds exactly one fault, since with several the previous
constructor reported whichever its frozenset met first.

old_coherence_violations keeps validate's previous coherence check
verbatim: it listed every composition path through frozensets of
pairs before looking for one that leaves its target, in memory that
grows as n^4 on a dense h model.  The check on bit rows must report
the same violations, each with the same path.

old_transitivity_violation keeps validate's previous transitivity
check verbatim: relations.missing_transitivity (now copied into
test_relations_reference) on the frozenset of pairs, then a search for
the middle state.  It was cubic in the states on a dense order.  The
check on rows must report the same triple.

old_reflexivity_and_upset_violations keeps validate's previous
reflexivity and valuation-upset checks verbatim: membership in the
frozenset leq and a walk of the sorted up_map.  validate now reads
both off the order's rows and must report the same violations.

old_pairs and old_model_from_dict keep the previous JSON loader
verbatim but for their names: it checked the shape of every relation
in a pass of its own and handed the lists to Model.make, which read
each pair again into its row.  The loader now checks each pair as it
ORs it into its row.  On valid dictionaries both must build equal
models, with equal rows, valuation and flavor; on dictionaries with
one or two faults both must raise the same error with the same text,
which pins the order in which the checks run.

old_rebuilt keeps verbatim the rebuild that cli._load (under --flavor)
and enrich_valuation made before they built on the model's rows
through Model._from_rows: the constructor on the pairs decoded from
every row.  For every source and target flavor both must build the
same states, rows, valuation and flavor, or raise the same error with
the same text.
"""

import random
import re
import tracemalloc
from typing import Sequence

import pytest

import test_relations_reference as ref
from kripkit import build_example, semantics
from kripkit import relations as rel
from kripkit.errors import ModelFormatError
from kripkit.formula import parse
from kripkit.model import (_ATOM_NAME, _MODEL_KEYS, _SHAPES, EK, FLAVORS,
                           FS, GPT, H, STANDARD, TENSE, Model, Violation,
                           _coherence_violations, enrich_valuation,
                           model_from_dict, model_to_dict)
from kripkit.sampling import random_model


class OldModel:
    def __init__(self, states, leq, boxes=(), diamonds=(), valuation=None,
                 flavor=STANDARD):
        states = list(states)
        if not states:
            raise ModelFormatError("a model needs at least one state")
        if len(set(states)) != len(states):
            raise ModelFormatError("duplicate state names")
        if not all(isinstance(s, str) and s for s in states):
            raise ModelFormatError("state names must be nonempty strings")
        self.states = tuple(sorted(states))
        known = frozenset(self.states)

        def checked(pairs, what):
            pairs = frozenset(map(tuple, pairs))
            for a, b in pairs:
                if a not in known or b not in known:
                    raise ModelFormatError(
                        f"{what} mentions unknown state in ({a}, {b})")
            return pairs

        self.leq = checked(leq, "leq")
        self.boxes = tuple(
            checked(r, f"box relation {i}") for i, r in enumerate(boxes, 1))
        self.diamonds = tuple(
            checked(s, f"diamond relation {j}")
            for j, s in enumerate(diamonds, 1))

        if flavor not in FLAVORS:
            raise ModelFormatError(f"unknown flavor {flavor!r}")
        want_boxes, want_diamonds = _SHAPES[flavor]
        if want_boxes is not None and len(self.boxes) != want_boxes:
            raise ModelFormatError(
                f"flavor {flavor!r} stores exactly {want_boxes} box "
                f"relation(s), got {len(self.boxes)}")
        if flavor == EK and not self.boxes:
            raise ModelFormatError("flavor 'ek' needs at least one relation")
        if want_diamonds is not None and len(self.diamonds) != want_diamonds:
            raise ModelFormatError(
                f"flavor {flavor!r} stores exactly {want_diamonds} diamond "
                f"relation(s), got {len(self.diamonds)}")
        self.flavor = flavor

        self.valuation = {}
        for atom in sorted(valuation or {}):
            if not _ATOM_NAME.match(atom):
                raise ModelFormatError(
                    f"atom name {atom!r} is not a lowercase identifier")
            xs = frozenset(valuation[atom])
            unknown = xs - known
            if unknown:
                raise ModelFormatError(
                    f"valuation of {atom} mentions unknown state "
                    f"{sorted(unknown)[0]!r}")
            self.valuation[atom] = xs

    def __eq__(self, other) -> bool:
        return (self.states == other.states and self.leq == other.leq
                and self.boxes == other.boxes
                and self.diamonds == other.diamonds
                and self.valuation == other.valuation
                and self.flavor == other.flavor)


def old_model_to_dict(m: OldModel) -> dict:
    return {
        "states": list(m.states),
        "leq_gen": [list(p) for p in sorted(m.leq)],
        "boxes": [[list(p) for p in sorted(r)] for r in m.boxes],
        "diamonds": [[list(p) for p in sorted(s)] for s in m.diamonds],
        "valuation": {atom: sorted(xs) for atom, xs in m.valuation.items()},
        "flavor": m.flavor,
    }


def built(cls, args):
    """The model cls builds from args, or the type and text of what
    it raised."""
    try:
        return cls(*args)
    except (ModelFormatError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Random inputs


def _pairs(rng: random.Random, states: list[str]) -> list:
    """A relation as the caller might write it: possibly empty, with
    duplicate pairs, pairs as tuples or lists, in any order."""
    if not rng.randrange(4):
        return []
    density = rng.random()
    pairs = [(a, b) for a in states for b in states if rng.random() < density]
    pairs += rng.choices(pairs, k=rng.randrange(3)) if pairs else []
    rng.shuffle(pairs)
    return [list(p) if rng.random() < 0.5 else p for p in pairs]


def _args(rng: random.Random) -> list:
    """Constructor arguments, relation counts right for the flavor
    most of the time; the order is left unclosed."""
    states = [f"s{i}" for i in range(rng.choice((1, 1, 2, 3, 5, 8)))]
    rng.shuffle(states)
    flavor = rng.choice(FLAVORS)
    want_boxes, want_diamonds = _SHAPES[flavor]
    n_boxes = rng.randint(0, 3) if want_boxes is None else want_boxes
    n_diamonds = rng.randint(0, 2) if want_diamonds is None else want_diamonds
    if rng.random() < 0.15:
        n_boxes = rng.randint(0, 3)
    if rng.random() < 0.15:
        n_diamonds = rng.randint(0, 2)
    valuation = {atom: [s for s in states if rng.random() < 0.5]
                 for atom in rng.sample(("p", "q", "r"), rng.randint(0, 3))}
    return [states, _pairs(rng, states),
            [_pairs(rng, states) for _ in range(n_boxes)],
            [_pairs(rng, states) for _ in range(n_diamonds)],
            valuation, flavor]


def _one_fault(rng: random.Random, args: list) -> list:
    """args with one bad pair put into one relation: an unknown state
    on either side, or a pair of the wrong length."""
    states = args[0]
    relations = [args[1], *args[2], *args[3]]
    target = rng.choice(relations)
    a, b = rng.choice(states), rng.choice(states)
    bad = rng.choice([(a, "zz"), ["zz", b], (a,), [a, b, b], ()])
    target.insert(rng.randrange(len(target) + 1), bad)
    return args


def _compare(args) -> None:
    new, old = built(Model, args), built(OldModel, args)
    if isinstance(old, tuple):
        assert new == old, args
        return
    assert isinstance(new, Model), (args, new)
    assert new.states == old.states
    assert new.leq == old.leq
    assert new.boxes == old.boxes
    assert new.diamonds == old.diamonds
    assert new.valuation == old.valuation
    assert model_to_dict(new) == old_model_to_dict(old)


CASES = range(1500)


def test_constructor_matches_reference_on_random_input():
    for seed in CASES:
        _compare(_args(random.Random(seed)))


def test_constructor_errors_match_reference():
    for seed in CASES:
        rng = random.Random(f"fault/{seed}")
        _compare(_one_fault(rng, _args(rng)))


def test_equality_matches_reference():
    # pairs of models, most of them sharing states and flavor, compare
    # equal under the new constructor exactly when under the old one
    for seed in range(500):
        rng = random.Random(f"eq/{seed}")
        args = _args(rng)
        other = _args(rng)
        if rng.random() < 0.7:
            other[0], other[5] = list(args[0]), args[5]
        if rng.random() < 0.3:  # the same relations, differently written
            other = [args[0], list(reversed(args[1])), args[2], args[3],
                     args[4], args[5]]
        pair = [built(Model, args), built(Model, other)]
        olds = [built(OldModel, args), built(OldModel, other)]
        if any(isinstance(m, tuple) for m in pair + olds):
            continue
        assert (pair[0] == pair[1]) == (olds[0] == olds[1]), (args, other)


@pytest.mark.parametrize("args", [
    [[], []],
    [["a", "a"], []],
    [["a", ""], []],
    [["a", 1], []],
    [["a"], [("a", "zz")]],
    [["a"], [("a",)]],
    [["a"], [("a", "a", "a")]],
    [["a"], [5]],
    [["a"], [(["a"], "a")]],
    [["a"], [], [[("zz", "a")]]],
    [["a"], [], [], [[("a", "zz")]]],
    [["a"], [], [[]], [], None, "fs"],
    [["a"], [], [], [], None, "fs"],
    [["a"], [], [], [], None, "ek"],
    [["a"], [], [[]], [[]], None, "h"],
    [["a"], [], [[]], [], None, "gpt"],
    [["a"], [], [], [], None, "nope"],
    [["a"], [], [], [], {"P": ["a"]}],
    [["a"], [], [], [], {"p": ["zz"]}],
    [["a"], [("a", "a"), ["a", "a"]], [], [], {"p": ["a"]}],
], ids=str)
def test_constructor_matches_reference_on_edge_cases(args):
    _compare(args)


# ---------------------------------------------------------------------------
# Coherence violations


def _inclusion_witness(parts: Sequence[frozenset], target: frozenset):
    """First composition path through `parts` whose endpoints are not
    in `target`, or None.  The path includes every intermediate state,
    so a two-relation condition yields (x, u, y)."""
    paths: list[tuple[str, ...]] = [pair for pair in sorted(parts[0])]
    for part in parts[1:]:
        succ = ref.successors(part)
        paths = [path + (c,)
                 for path in paths
                 for c in sorted(succ.get(path[-1], ()))]
    for path in paths:
        if (path[0], path[-1]) not in target:
            return path
    return None


def old_coherence_violations(m: Model) -> list[Violation]:
    leq, geq = m.leq, m.geq
    out: list[Violation] = []

    def need(axiom, parts, target):
        w = _inclusion_witness(parts, target)
        if w is not None:
            out.append(Violation(axiom, w))

    if m.flavor == STANDARD:
        for i, r in enumerate(m.boxes, 1):
            need(f"box-{i}-coherence", [leq, r], rel.compose(r, leq))
        for j, s in enumerate(m.diamonds, 1):
            need(f"diamond-{j}-coherence", [geq, s], rel.compose(s, geq))
    elif m.flavor == FS:
        r = m.boxes[0]
        need("fs-forward-coherence", [r, leq], rel.compose(leq, r))
        need("fs-backward-coherence", [geq, r], rel.compose(r, geq))
    elif m.flavor == GPT:
        r, s = m.boxes[0], m.diamonds[0]
        need("gpt-box-coherence", [r, leq], rel.compose(leq, r))
        need("gpt-diamond-coherence", [geq, s], rel.compose(s, geq))
    elif m.flavor == TENSE:
        r, s = m.boxes[0], m.diamonds[0]
        need("tense-box-equality", [leq, r], rel.compose(r, leq))
        need("tense-box-equality", [r, leq], rel.compose(leq, r))
        need("tense-diamond-equality", [geq, s], rel.compose(s, geq))
        need("tense-diamond-equality", [s, geq], rel.compose(geq, s))
    elif m.flavor == H:
        need("h-condensation", [leq, m.boxes[0], leq], m.boxes[0])
    elif m.flavor == EK:
        for i, r in enumerate(m.boxes, 1):
            need(f"ek-box-{i}-absorption", [leq, r], r)
    return out


def test_coherence_violations_match_reference_on_random_input():
    # raw constructor input often breaks a flavor's conditions: these
    # models break 567 of them, each reported at its first path
    found = 0
    for seed in CASES:
        m = built(Model, _args(random.Random(seed)))
        if isinstance(m, Model):
            want = old_coherence_violations(m)
            assert _coherence_violations(m) == want, seed
            found += len(want)
    assert found == 567


def test_coherence_violations_match_reference_on_valid_models():
    models = [build_example(name, params) for name, params in (
        ("wedge", ()), ("wedge_strict", ()), ("spines", (5,)),
        ("porcupine", (3,)), ("omega_chain", (4,)))]
    for flavor in FLAVORS:
        kw = {STANDARD: dict(n_boxes=2, n_diamonds=1), EK: dict(n_boxes=2),
              GPT: dict(n_diamonds=1), TENSE: dict(n_diamonds=1)}
        for seed in range(10):
            models.append(random_model(random.Random(seed), flavor,
                                       n_states=1 + seed, strict=seed % 2,
                                       **kw.get(flavor, {})))
    for m in models:
        assert _coherence_violations(m) == old_coherence_violations(m) == []


def test_validate_memory_stays_quadratic_on_a_dense_h_model():
    # listing every path of leq∘R∘leq took 211 MB here; the rows take
    # well under 1 MB
    m = random_model(random.Random(1), H, n_states=40)
    tracemalloc.start()
    try:
        report = m.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.strictly_condensed
    assert peak < 4_000_000, peak


# ---------------------------------------------------------------------------
# Transitivity


def old_transitivity_violation(m: Model) -> list[Violation]:
    w = ref.missing_transitivity(m.leq)
    if w is None:
        return []
    # recover the middle state for the report
    x, z = w
    mid = min(u for u in m.up_map.get(x, m.states)
              if (x, u) in m.leq and (u, z) in m.leq)
    return [Violation("transitivity", (x, mid, z))]


def _transitivity_violation(m: Model) -> list[Violation]:
    return [v for v in m.validate().violations if v.axiom == "transitivity"]


def test_transitivity_violation_matches_reference_on_random_orders():
    # unclosed random orders over up to 12 states, of every density
    found = 0
    for seed in range(3000):
        rng = random.Random(f"trans/{seed}")
        states = [f"s{i}" for i in range(rng.randint(1, 12))]
        density = rng.random()
        m = Model(states, [(a, b) for a in states for b in states
                           if rng.random() < density])
        want = old_transitivity_violation(m)
        assert _transitivity_violation(m) == want, seed
        found += len(want)
    assert found == 2131


def test_transitivity_violation_matches_reference_on_constructor_input():
    found = 0
    for seed in CASES:
        m = built(Model, _args(random.Random(seed)))
        if isinstance(m, Model):
            want = old_transitivity_violation(m)
            assert _transitivity_violation(m) == want, seed
            found += len(want)
    assert found == 375


def old_reflexivity_and_upset_violations(m: Model) -> list[Violation]:
    violations: list[Violation] = []
    for s in m.states:
        if (s, s) not in m.leq:
            violations.append(Violation("reflexivity", (s,)))
    for atom, xs in m.valuation.items():
        done = False
        for a in sorted(xs):
            if done:
                break
            for b in sorted(m.up_map.get(a, ())):
                if b not in xs:
                    violations.append(Violation("valuation-upset", (atom, a, b)))
                    done = True
                    break
    return violations


def test_reflexivity_and_upset_violations_match_reference():
    # validate reads both off the order's rows; unclosed random orders
    # over up to 14 states (s10 on sort between s1 and s2), with random
    # valuations of every density
    found = set()
    for seed in range(1500):
        rng = random.Random(f"upsets/{seed}")
        states = [f"s{i}" for i in range(rng.randint(1, 14))]
        density = rng.random()
        valuation = {atom: [x for x in states if rng.random() < density]
                     for atom in ("p", "q", "r")[:rng.randint(0, 3)]}
        m = Model(states, [(a, b) for a in states for b in states
                           if rng.random() < density], valuation=valuation)
        want = old_reflexivity_and_upset_violations(m)
        assert [v for v in m.validate().violations
                if v.axiom in ("reflexivity", "valuation-upset")] == want, seed
        found.update(v.axiom for v in want)
    assert found == {"reflexivity", "valuation-upset"}


# ---------------------------------------------------------------------------
# The JSON loader


def old_pairs(value, what):
    """value, checked to be a list of [from, to] pairs of strings."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a list of pairs")
    for item in value:
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise ModelFormatError(f"{what} must contain [from, to] pairs")
    return value


def old_model_from_dict(data) -> Model:
    """Strictly parse the JSON model object.  The order is given by
    generators under "leq_gen" and closed into a preorder here."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ModelFormatError(f"unknown model key {sorted(unknown)[0]!r}")
    for key in ("states", "leq_gen", "valuation"):
        if key not in data:
            raise ModelFormatError(f"model is missing {key!r}")
    states = data["states"]
    if (not isinstance(states, list)
            or not all(isinstance(s, str) for s in states)):
        raise ModelFormatError("states must be a list of strings")
    leq_gen = old_pairs(data["leq_gen"], "leq_gen")
    rels = {}
    for key in ("boxes", "diamonds"):
        value = data.get(key, [])
        if not isinstance(value, list):
            raise ModelFormatError(f"{key} must be a list of relations")
        rels[key] = [old_pairs(r, f"{key}[{i}]") for i, r in enumerate(value)]
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise ModelFormatError("valuation must be an object")
    for atom, xs in valuation.items():
        if not isinstance(xs, list) or not all(isinstance(s, str) for s in xs):
            raise ModelFormatError(f"valuation of {atom!r} must list states")
    flavor = data.get("flavor", STANDARD)
    if not isinstance(flavor, str):
        raise ModelFormatError("flavor must be a string")
    return Model.make(states, leq_gen, boxes=rels["boxes"],
                      diamonds=rels["diamonds"], valuation=valuation,
                      flavor=flavor)


def _data(rng: random.Random) -> dict:
    """A model dictionary as a file might hold it, from _args: states
    in any order, order generators, duplicate pairs, relation counts
    right for the flavor most of the time, and the optional keys left
    out now and then.  Some dictionaries name their states by single
    letters, so that a two-letter string spells a pair of them."""
    states, leq, boxes, diamonds, valuation, flavor = _args(rng)
    name = {s: s for s in states}
    if rng.random() < 0.3:
        name = dict(zip(states, "abcdefgh"))

    def pairs(r):
        return [[name[a], name[b]] for a, b in r]

    data = {"states": [name[s] for s in states], "leq_gen": pairs(leq),
            "boxes": [pairs(r) for r in boxes],
            "diamonds": [pairs(s) for s in diamonds],
            "valuation": {atom: [name[s] for s in xs]
                          for atom, xs in valuation.items()},
            "flavor": flavor}
    for key, default in (("boxes", []), ("diamonds", []),
                         ("flavor", STANDARD)):
        if data[key] == default and rng.random() < 0.5:
            del data[key]
    return data


# values that are not strings, hashable and not
NOT_NAMES = (1, None, True, 2.5, ["a"], {"a": 1})


def _fault(rng: random.Random, data: dict) -> None:
    """Put into data, in place, one fault of a kind test_model.py pins:
    a relation that is not a list, a pair that is short, long, a
    string or a tuple, a name that is not a string, a pair naming an
    unknown state, a states list that is not one of strings, empty or
    repeating a name, a bad valuation or flavor, or a bad key."""
    states = data.get("states")
    names = states if isinstance(states, list) and states else ["a"]
    a, b = rng.choice(names), rng.choice(names)
    relations = [data.get("leq_gen")] + [
        r for key in ("boxes", "diamonds")
        if isinstance(data.get(key), list) for r in data[key]]
    relations = [r for r in relations if isinstance(r, list)]
    kind = rng.randrange(12)
    if kind == 0:  # a relation, or a list of them, that is not a list
        where = rng.choice(["leq_gen", "boxes", "diamonds", "boxes[]",
                            "diamonds[]"])
        bad = rng.choice(["a<b", {"a": "b"}, 7, None])
        listed = data.get(where[:-2])
        if where.endswith("[]") and isinstance(listed, list) and listed:
            listed[rng.randrange(len(listed))] = bad
        else:
            data[where.rstrip("[]")] = bad
    elif kind <= 5:  # a bad pair among good ones
        bad = [[a], [], [a, b, b], f"{a}{b}", (a, b),
               [a, rng.choice(NOT_NAMES)], [rng.choice(NOT_NAMES), b],
               [a, "zz"], ["zz", b], ["zz", "zz"]][rng.randrange(10)]
        if relations:
            target = rng.choice(relations)
            target.insert(rng.randrange(len(target) + 1), bad)
    elif kind == 6:  # the states
        data["states"] = rng.choice([
            "abc", [*names, 3], [], [*names, rng.choice(names)],
            [*names, ""], [*names[:-1]]])
    elif kind == 7:  # the valuation
        if rng.random() < 0.2 or not isinstance(data.get("valuation"), dict):
            data["valuation"] = rng.choice([[], "p", None])
        else:
            data["valuation"][rng.choice(["p", "q", "P", "1p", "r"])] = (
                rng.choice([[a], ["zz"], "a", [1], [a, None], {a: 1}]))
    elif kind == 8:  # the flavor
        data["flavor"] = rng.choice([3, None, "nope", *FLAVORS])
    elif kind == 9:  # a count of relations the flavor does not store
        data[rng.choice(["boxes", "diamonds"])] = [[] for _ in range(
            rng.randint(0, 3))]
    elif kind == 10:
        data[rng.choice(["extra", "Boxes", "leq"])] = []
    else:
        data.pop(rng.choice(["states", "leq_gen", "valuation"]), None)


def loaded(fn, data):
    """The model fn builds from data, or the type and text of what it
    raised."""
    try:
        return fn(data)
    except (ModelFormatError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _compare_loaders(data) -> object:
    new, old = loaded(model_from_dict, data), loaded(old_model_from_dict, data)
    if isinstance(old, tuple):
        assert new == old, data
        return old
    assert isinstance(new, Model), (data, new)
    assert new == old
    assert new.states == old.states
    assert new._leq_rows == old._leq_rows
    assert new._box_rows == old._box_rows
    assert new._dia_rows == old._dia_rows
    assert new.valuation == old.valuation
    assert new.flavor == old.flavor
    return old


def test_loader_matches_reference_on_random_dictionaries():
    built_models = 0
    for seed in CASES:
        out = _compare_loaders(_data(random.Random(f"load/{seed}")))
        built_models += isinstance(out, Model)
    assert built_models > len(CASES) // 2


@pytest.mark.parametrize("flavor", FLAVORS)
def test_loader_matches_reference_on_sampled_models(flavor):
    kw = {STANDARD: dict(n_boxes=2, n_diamonds=1), EK: dict(n_boxes=2)}
    for seed in range(8):
        rng = random.Random(f"load/{flavor}/{seed}")
        m = random_model(rng, flavor, n_states=rng.choice((1, 4, 12, 30)),
                         strict=seed % 2 == 0, **kw.get(flavor, {}))
        assert _compare_loaders(model_to_dict(m)) == m


@pytest.mark.parametrize("example", [
    ("wedge", ()), ("wedge_strict", ()), ("spines", (4,)), ("spines", (12,)),
    ("porcupine", (3,)), ("porcupine_trimmed", (3,)), ("omega_chain", (5,))],
    ids=str)
def test_loader_matches_reference_on_the_gallery(example):
    m = build_example(*example)
    assert _compare_loaders(model_to_dict(m)) == m


def _kind(message: str) -> str:
    """An error's text up to the first name it quotes."""
    return re.split(r"[('\[]", message, maxsplit=1)[0]


def test_loader_errors_match_reference():
    kinds = set()
    for seed in CASES:
        rng = random.Random(f"load-fault/{seed}")
        data = _data(rng)
        for _ in range(rng.choice((1, 2))):
            _fault(rng, data)
        out = _compare_loaders(data)
        if isinstance(out, tuple):
            kinds.add(_kind(out[1]))
    # every check the loader makes was the first to fail somewhere
    assert kinds >= {
        "leq_gen must be a list of pairs", "leq_gen must contain ",
        "boxes", "diamonds", "states must be a list of strings",
        "a model needs at least one state", "duplicate state names",
        "state names must be nonempty strings",
        "leq mentions unknown state in ", "box relation 1 mentions "
        "unknown state in ", "diamond relation 1 mentions unknown state in ",
        "valuation must be an object", "valuation of ", "atom name ",
        "flavor must be a string", "unknown flavor ", "flavor ",
        "unknown model key ", "model is missing "}, kinds


@pytest.mark.parametrize("data", [
    # a shape fault after an unknown state: the shape is reported
    {"states": ["a"], "leq_gen": [["a", "zz"], ["a"]], "valuation": {}},
    {"states": ["a"], "leq_gen": [["zz", "a"]], "boxes": [[["a", 1]]],
     "valuation": {}},
    # unknown states in two relations: the first relation's is reported
    {"states": ["a"], "leq_gen": [["a", "a"]], "boxes": [[["a", "y"]]],
     "diamonds": [[["x", "a"]]], "valuation": {}},
    # an unknown state after a bad valuation, and after bad states
    {"states": ["a"], "leq_gen": [["a", "zz"]], "valuation": {"p": "a"}},
    {"states": ["a", "a"], "leq_gen": [["a", "zz"]], "valuation": {}},
    {"states": [], "leq_gen": [["a", "b"]], "valuation": {}},
    # an unknown state before a bad flavor count and a bad atom
    {"states": ["a"], "leq_gen": [["a", "zz"]], "valuation": {"P": ["a"]},
     "flavor": "fs"},
    # a two-letter string and a tuple, though each spells a pair of states
    {"states": ["a", "b"], "leq_gen": ["ab"], "valuation": {}},
    {"states": ["a", "b"], "leq_gen": [("a", "b")], "valuation": {}},
    # names that are no strings: unhashable, and equal to a state's index
    {"states": ["a"], "leq_gen": [["a", ["a"]]], "valuation": {}},
    {"states": ["a"], "leq_gen": [[0, "a"]], "valuation": {}},
], ids=str)
def test_loader_matches_reference_on_edge_cases(data):
    assert isinstance(_compare_loaders(data), tuple)


def old_rebuilt(m: Model, valuation, flavor: str) -> Model:
    return Model(m.states, m.leq, boxes=m.boxes, diamonds=m.diamonds,
                 valuation=valuation, flavor=flavor)


def _compare_rebuilds(m: Model, valuation, flavor) -> object:
    new = loaded(lambda _: Model._from_rows(
        m.states, m._index, m._leq_rows, m._box_rows, m._dia_rows, valuation,
        flavor), None)
    old = loaded(lambda _: old_rebuilt(m, valuation, flavor), None)
    if isinstance(old, tuple):
        assert new == old, (m, flavor)
        return old
    assert isinstance(new, Model), (m, flavor, new)
    assert new.states == old.states
    assert new._leq_rows == old._leq_rows
    assert new._box_rows == old._box_rows
    assert new._dia_rows == old._dia_rows
    assert new.valuation == old.valuation
    assert new.flavor == old.flavor
    assert new == old
    return old


def _valuations(rng: random.Random, m: Model) -> list:
    """m's own valuation, one with a fresh atom, and three with a
    fault: a bad atom name, an unknown state, a value that is no
    collection of states."""
    some = rng.sample(m.states, rng.randint(0, len(m.states)))
    return [m.valuation, {**m.valuation, "fresh": some},
            {**m.valuation, "Bad": some}, {**m.valuation, "r": ["zz"]},
            {**m.valuation, "r": 3}]


def _rebuild_sources():
    kw = {STANDARD: dict(n_boxes=2, n_diamonds=1), EK: dict(n_boxes=2)}
    for flavor in FLAVORS:
        for seed in range(4):
            rng = random.Random(f"rebuild/{flavor}/{seed}")
            yield rng, random_model(rng, flavor,
                                    n_states=rng.choice((1, 4, 12)),
                                    strict=seed % 2 == 0,
                                    **kw.get(flavor, {}))
    for example in (("wedge", ()), ("spines", (4,)), ("porcupine", (3,)),
                    ("omega_chain", (5,))):
        yield random.Random(f"rebuild/{example}"), build_example(*example)


def test_rebuild_matches_reference_for_every_flavor():
    outcomes = set()
    for rng, m in _rebuild_sources():
        for flavor in (*FLAVORS, "nope"):
            for valuation in _valuations(rng, m):
                out = _compare_rebuilds(m, valuation, flavor)
                outcomes.add(f"{out[0].__name__}: {_kind(out[1])}"
                             if isinstance(out, tuple) else "built")
    assert outcomes == {
        "built", "ModelFormatError: flavor ",
        "ModelFormatError: unknown flavor ", "ModelFormatError: atom name ",
        "ModelFormatError: valuation of r mentions unknown state ",
        "TypeError: "}, outcomes


def test_enrich_valuation_matches_reference():
    for rng, m in _rebuild_sources():
        formula = parse("p -> q")
        val = {**m.valuation,
               "fresh": semantics.truth_set(formula, m)}
        assert (enrich_valuation(m, [("fresh", formula)])
                == _compare_rebuilds(m, val, m.flavor))
