"""Differential test of model surgery and sampling against the
frozenset code they replaced.

old_dualize, old_strictify and old_quotient below keep verbatim, but
for their names, the surgery that composed frozensets of pairs and
handed them to the Model constructor, which read every pair back into
a row.  old_random_model and the samplers beside it keep verbatim, but
for their names, the sampling that did the same.  kripkit now builds
every derived model on the source model's rows, and samples into
rows, through one constructor from rows.  On the gallery and on random
models of every flavor, each must build an equal model with the same
validation report and byte-equal model_to_json, or raise the same
error with the same text.  The samplers must also leave the generator
in the same state, so every draw is made, and in the same order: the
states s0, s1, ... in list order, which from s10 on is not the sorted
order the rows number them in.

The references run on test_relations_reference's set-based algebra,
imported as rel, so they share no code with the rows.
"""

import random
from typing import Sequence

import pytest

import test_relations_reference as rel
from kripkit import Fragment, build_example
from kripkit.bisim import bisimilarity_partition, conditions_for
from kripkit.errors import FlavorError, PreconditionError
from kripkit.model import (EK, FLAVORS, FS, GPT, H, STANDARD, TENSE, Model,
                           Partition, dualize, model_to_json, quotient,
                           require_valid, strictify)
from kripkit.sampling import (random_classical_model, random_model,
                              random_preorder, random_relation, random_upset)


# ---------------------------------------------------------------------------
# The references


def old_random_relation(rng: random.Random, states: Sequence[str],
                        density: float = 0.25) -> frozenset:
    return frozenset((a, b) for a in states for b in states
                     if rng.random() < density)


def old_random_preorder(rng: random.Random, states: Sequence[str],
                        density: float = 0.2) -> frozenset:
    seed = [(a, b) for a in states for b in states
            if a != b and rng.random() < density]
    return rel.preorder_closure(seed, states)


def old_random_upset(rng: random.Random, leq: frozenset,
                     states: Sequence[str], density: float = 0.35) -> frozenset:
    seed = {s for s in states if rng.random() < density}
    return rel.upward_closure(leq, seed)


def old_random_model(rng: random.Random, flavor: str = STANDARD,
                     n_states: int = 5, n_boxes: int = 1, n_diamonds: int = 0,
                     atoms: Sequence[str] = ("p", "q"),
                     strict: bool = False) -> Model:
    """A valid random model of the given flavor.  With strict=True the
    result is strictly condensed (fs and h always are)."""
    states = [f"s{i}" for i in range(n_states)]
    leq = old_random_preorder(rng, states)
    geq = rel.converse(leq)

    def raw():
        return old_random_relation(rng, states)

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

    valuation = {a: old_random_upset(rng, leq, states) for a in atoms}
    return Model(states, leq, boxes=boxes, diamonds=diamonds,
                 valuation=valuation, flavor=flavor)


def old_random_classical_model(rng: random.Random, n_states: int = 5,
                               n_boxes: int = 1,
                               atoms: Sequence[str] = ("p", "q")) -> Model:
    """A standard model with the identity order: plain Kripke frames,
    where any valuation is an upset and any relation is coherent."""
    states = [f"s{i}" for i in range(n_states)]
    valuation = {a: frozenset(s for s in states if rng.random() < 0.5)
                 for a in atoms}
    return Model(states, rel.identity(states),
                 boxes=[old_random_relation(rng, states, 0.3)
                        for _ in range(n_boxes)],
                 valuation=valuation)


def old_dualize(m: Model) -> Model:
    """Mirror a model across the order: reverse ≤, complement the
    valuation, and let boxes and diamonds trade places.  An involution.

    Defined for standard models and, by swapping the two stored
    relations, for tense models.  The other flavors have no matching
    dual discipline and are rejected.
    """
    require_valid(m, "dualize")
    co_val = {atom: m.state_set - xs for atom, xs in m.valuation.items()}
    if m.flavor == STANDARD:
        return Model(m.states, m.geq, boxes=m.diamonds, diamonds=m.boxes,
                     valuation=co_val, flavor=STANDARD)
    if m.flavor == TENSE:
        return Model(m.states, m.geq, boxes=[m.diamonds[0]],
                     diamonds=[m.boxes[0]], valuation=co_val, flavor=TENSE)
    raise FlavorError(f"flavor {m.flavor!r} has no dual")


def old_strictify(m: Model) -> Model:
    """Absorb the order into the modal relations without changing any
    truth set.  The result is strictly condensed.

    Standard and tense models compose on the outside (R∘≤, S∘≥); GPT
    models compose the box side on the inside (≤∘R) to match how their
    box already quantifies through ≤.
    """
    require_valid(m, "strictify")
    leq, geq = m.leq, m.geq
    if m.flavor in (STANDARD, TENSE):
        boxes = [rel.compose(r, leq) for r in m.boxes]
        diamonds = [rel.compose(s, geq) for s in m.diamonds]
    elif m.flavor == GPT:
        boxes = [rel.compose(leq, m.boxes[0])]
        diamonds = [rel.compose(m.diamonds[0], geq)]
    else:
        raise FlavorError(f"flavor {m.flavor!r} has no strictification recipe")
    return Model(m.states, m.leq, boxes=boxes, diamonds=diamonds,
                 valuation=m.valuation, flavor=m.flavor)


def old_quotient(m: Model, p: Partition, conditions=None):
    """Collapse each partition block to one state, lifting relations
    existentially and naming blocks by their least member (so taking
    the quotient twice changes nothing, not even names).

    When a ConditionSet is supplied, the graph of the quotient map is
    checked to be a bisimulation between the model and its quotient;
    partitions that are not bisimulation-closed are rejected.

    Returns the quotient model and the state → block mapping.
    """
    if not p.covers(m.states):
        raise PreconditionError(
            "partition does not cover exactly the model's states")
    blk = p.block_of

    def lift(pairs):
        return frozenset((blk[a], blk[b]) for a, b in pairs)

    lifted = Model(
        sorted(set(blk.values())),
        lift(m.leq),
        boxes=[lift(r) for r in m.boxes],
        diamonds=[lift(s) for s in m.diamonds],
        valuation={atom: {blk[x] for x in xs}
                   for atom, xs in m.valuation.items()},
        flavor=m.flavor,
    )
    if conditions is not None:
        from kripkit.bisim import is_bisimulation
        graph = frozenset((x, blk[x]) for x in m.states)
        bad = is_bisimulation(graph, m, lifted, conditions)
        if bad:
            raise PreconditionError(
                "partition is not bisimulation-closed: "
                f"{bad[0]}")
    return lifted, dict(blk)


# ---------------------------------------------------------------------------
# Comparison


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)


def _same_model(new: Model, old: Model) -> None:
    assert isinstance(new, Model), new
    assert new == old
    assert model_to_json(new) == model_to_json(old)
    assert new.validate() == old.validate()


def _same(new, old):
    """The outcomes of a new and a reference call agree: equal models
    (alone or with a quotient's map) or the same error."""
    if isinstance(old, Model):
        _same_model(new, old)
    elif isinstance(old, tuple) and old and isinstance(old[0], Model):
        assert isinstance(new, tuple) and len(new) == 2, new
        _same_model(new[0], old[0])
        assert new[1] == old[1]
    else:
        assert new == old
    return old


def _kind(out) -> str:
    if isinstance(out, tuple) and isinstance(out[0], type):
        return out[0].__name__
    return "built"


_COUNTS = [(b, d) for b in range(3) for d in range(3)]


def _sampling_cases():
    """(seed, flavor, keywords): every flavor, strict and not, box and
    diamond counts 0-2, each at one size up to 10 and one from 11 to
    45."""
    pick = random.Random("sampling sizes")
    for flavor in FLAVORS:
        for strict in (False, True):
            for n_boxes, n_diamonds in _COUNTS:
                for n in (pick.randint(1, 10), pick.randint(11, 45)):
                    yield (f"{flavor}/{strict}/{n_boxes}/{n_diamonds}/{n}",
                           flavor, dict(n_states=n, n_boxes=n_boxes,
                                        n_diamonds=n_diamonds, strict=strict))


SAMPLING_CASES = list(_sampling_cases())


def _sampled(sampler, seed, *args, **kwargs):
    """sampler's outcome on a fresh generator, with the generator's
    state after the call."""
    rng = random.Random(seed)
    return _outcome(sampler, rng, *args, **kwargs), rng.getstate()


def test_random_model_matches_reference():
    for seed, flavor, kw in SAMPLING_CASES:
        new, new_state = _sampled(random_model, seed, flavor, **kw)
        old, old_state = _sampled(old_random_model, seed, flavor, **kw)
        _same(new, old)
        assert new_state == old_state, seed
        assert old.validate().ok, seed
    assert max(kw["n_states"] for _, _, kw in SAMPLING_CASES) >= 40


@pytest.mark.parametrize("flavor, kw", [
    ("nope", {}), ("weird", dict(n_states=12)),
    (STANDARD, dict(n_states=0)), ("nope", dict(n_states=0)),
    (H, dict(atoms=("p", "Bad"))), (FS, dict(n_states=11, atoms=())),
    (TENSE, dict(n_states=13, atoms=("r", "p", "r"))),
], ids=str)
def test_random_model_errors_and_edges_match_reference(flavor, kw):
    new, new_state = _sampled(random_model, "edge", flavor, **kw)
    old, old_state = _sampled(old_random_model, "edge", flavor, **kw)
    _same(new, old)
    assert new_state == old_state


def test_samplers_match_reference():
    for seed in range(60):
        n = seed % 23 + (seed % 3 == 0)
        states = [f"s{i}" for i in range(n)]
        shuffled = random.Random(seed).sample(states, n)
        for new_fn, old_fn, args in (
                (random_relation, old_random_relation, (states,)),
                (random_relation, old_random_relation, (shuffled, 0.5)),
                (random_preorder, old_random_preorder, (states,)),
                (random_preorder, old_random_preorder, (shuffled, 0.4))):
            new, new_state = _sampled(new_fn, seed, *args)
            old, old_state = _sampled(old_fn, seed, *args)
            assert new == old and new_state == old_state, (seed, new_fn)
        leq = old_random_preorder(random.Random(-seed), states)
        for density in (0.35, 0.7):
            new, new_state = _sampled(random_upset, seed, leq, shuffled,
                                      density)
            old, old_state = _sampled(old_random_upset, seed, leq, shuffled,
                                      density)
            assert new == old and new_state == old_state, seed
        kw = dict(n_states=max(n, 1), n_boxes=seed % 3,
                  atoms=("p", "q", "r")[:seed % 4])
        new, new_state = _sampled(random_classical_model, seed, **kw)
        old, old_state = _sampled(old_random_classical_model, seed, **kw)
        _same(new, old)
        assert new_state == old_state, seed


# ---------------------------------------------------------------------------
# Surgery


GALLERY = [("wedge", ()), ("wedge_strict", ()), ("spines", (4,)),
           ("spines", (12,)), ("porcupine", (3,)),
           ("porcupine_trimmed", (3,)), ("omega_chain", (5,)),
           ("omega_chain", (12,))]


def _broken(rng: random.Random, flavor: str) -> Model:
    """A model of flavor on random relations, which its coherence
    conditions, and a random valuation, which upsets, mostly break."""
    states = [f"s{i}" for i in range(rng.randint(1, 13))]
    boxes, diamonds = {STANDARD: (2, 1), FS: (1, 0), GPT: (1, 1),
                       TENSE: (1, 1), H: (1, 0), EK: (2, 0)}[flavor]
    return Model.make(
        states, old_random_relation(rng, states, 0.1),
        boxes=[old_random_relation(rng, states) for _ in range(boxes)],
        diamonds=[old_random_relation(rng, states) for _ in range(diamonds)],
        valuation={"p": rng.sample(states, rng.randint(0, len(states)))},
        flavor=flavor)


def _surgery_models():
    for example in GALLERY:
        yield build_example(*example)
    for seed, flavor, kw in SAMPLING_CASES[::3]:
        yield random_model(random.Random(seed), flavor, **kw)
    for flavor in FLAVORS:
        for seed in range(4):
            yield _broken(random.Random(f"broken/{flavor}/{seed}"), flavor)


SURGERY_MODELS = list(_surgery_models())


def test_dualize_and_strictify_match_reference():
    kinds = set()
    for m in SURGERY_MODELS:
        for new_fn, old_fn in ((dualize, old_dualize),
                               (strictify, old_strictify)):
            out = _same(_outcome(new_fn, m), _outcome(old_fn, m))
            kinds.add((new_fn.__name__, _kind(out)))
            if isinstance(out, Model):
                # and once more, on a derived model
                _same(_outcome(new_fn, out), _outcome(old_fn, out))
    # every outcome shows up: built, a flavor without the recipe, and
    # an invalid model
    assert kinds == {(name, kind) for name in ("dualize", "strictify")
                     for kind in ("built", "FlavorError",
                                  "PreconditionError")}, kinds


def _conditions(m: Model):
    """The clause set of the widest fragment m's flavor reads, up to
    two of each modality."""
    n, d = min(len(m.boxes), 2), min(len(m.diamonds), 2)
    frag = {STANDARD: Fragment("biint", n, d), EK: Fragment("int", n),
            FS: Fragment("int", 1), GPT: Fragment("biint", 1, 1, True),
            TENSE: Fragment("biint", 1, 1, True),
            H: Fragment("biint", 1, 1, True)}[m.flavor]
    return conditions_for(frag, m.flavor)


def _partitions(rng: random.Random, m: Model):
    """Partitions of m's states: bisimilarity, discrete, random blocks
    named by least member and by fresh names, and four that must be
    refused (not covering, integer names, an empty name, mixed
    names)."""
    states = list(m.states)
    yield bisimilarity_partition(m, _conditions(m))
    yield Partition.from_blocks([[x] for x in states])
    k = rng.randint(1, len(states))
    label = {x: rng.randrange(k) for x in states}
    yield Partition({x: min(y for y in states if label[y] == label[x])
                     for x in states})
    yield Partition({x: f"b{label[x]}" for x in states})
    yield Partition({x: x for x in states[1:]})
    yield Partition({x: label[x] for x in states})
    yield Partition({x: "" for x in states})
    yield Partition({x: label[x] if label[x] else "b" for x in states})


def test_quotient_matches_reference():
    kinds = set()
    for seed, m in enumerate(SURGERY_MODELS):
        rng = random.Random(seed)
        for p in _partitions(rng, m):
            for conditions in (None, _conditions(m)):
                out = _same(_outcome(quotient, m, p, conditions),
                            _outcome(old_quotient, m, p, conditions))
                kinds.add("built" if isinstance(out[0], Model)
                          else (out[0].__name__, out[1].split(":")[0]))
    assert kinds >= {
        "built",
        ("PreconditionError",
         "partition does not cover exactly the model's states"),
        ("PreconditionError", "partition is not bisimulation-closed"),
        ("ModelFormatError", "state names must be nonempty strings")}, kinds
    assert any(kind[0] == "TypeError" for kind in kinds - {"built"}), kinds

