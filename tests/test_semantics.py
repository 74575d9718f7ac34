"""Truth sets across the evaluation flavors."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import kripkit as kk
import kripkit.relations as rel
import test_relations_reference as ref
from kripkit import Model, build_example, parse, semantics
from kripkit.errors import FlavorError, ModelFormatError, PreconditionError
from kripkit.formula import (_MODAL_SYMBOL, Box, Dia, TBox, TDia, _Const,
                             _Modal)
from kripkit.model import _SHAPES
from kripkit.sampling import random_formula, random_model
from kripkit.semantics import (back_box_relation, back_dia_relation,
                               box_relation, ck_relation, dia_relation,
                               left_converse, semantic_operator, truth_set)


def ts(text, m, **kw):
    return sorted(truth_set(parse(text), m, **kw))


WEDGE = build_example("wedge")


def test_wedge_truth_sets():
    assert ts("T", WEDGE) == ["x", "y", "z"]
    assert ts("F", WEDGE) == []
    assert ts("p", WEDGE) == ["y", "z"]
    assert ts("p & q", WEDGE) == ["z"]
    assert ts("p | q", WEDGE) == ["y", "z"]
    assert ts("~p", WEDGE) == ["x"]
    assert ts("p -> q", WEDGE) == ["x", "z"]
    assert ts("p -< q", WEDGE) == ["y", "z"]
    assert ts("-.q", WEDGE) == ["x", "y", "z"]
    assert ts("[]1 p", WEDGE) == ["x", "y", "z"]
    assert ts("[]1 q", WEDGE) == ["y", "z"]
    assert ts("[]1 (p -> q)", WEDGE) == ["y", "z"]


def test_unvalued_atoms_are_false_everywhere():
    assert ts("unknown_atom", WEDGE) == []


def test_standard_rejects_backward_operators():
    with pytest.raises(FlavorError):
        truth_set(parse("<|1 p"), WEDGE)
    with pytest.raises(FlavorError):
        truth_set(parse("|>1 p"), WEDGE)


def test_index_out_of_range():
    with pytest.raises(FlavorError):
        truth_set(parse("[]2 p"), WEDGE)
    with pytest.raises(FlavorError):
        truth_set(parse("<>1 p"), WEDGE)


def test_fs_box_looks_through_the_order():
    m = Model.make(["a", "b"], [("a", "b")],
                   boxes=[{("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}],
                   valuation={"p": {"b"}}, flavor="fs")
    assert m.validate().ok
    total = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert sorted(box_relation(m, 1)) == total
    # The diamond reads the very same stored relation, raw.
    assert sorted(dia_relation(m, 1)) == total
    assert ts("[]1 p", m) == []
    assert ts("<>1 p", m) == ["a", "b"]


TENSE = Model.make(["a", "b", "c"], [("a", "b")],
                   boxes=[{("a", "c"), ("b", "c"), ("c", "c")}],
                   diamonds=[{("c", "a"), ("c", "b"), ("a", "a"), ("b", "b")}],
                   valuation={"p": {"b"}}, flavor="tense")


def test_tense_operators():
    assert TENSE.validate().ok
    assert ts("[]1 p", TENSE) == []
    assert ts("<>1 p", TENSE) == ["b", "c"]
    assert ts("<|1 p", TENSE) == ["c"]
    assert ts("|>1 p", TENSE) == ["c"]
    assert sorted(back_dia_relation(TENSE, 1)) == \
        [("c", "a"), ("c", "b"), ("c", "c")]
    assert sorted(back_box_relation(TENSE, 1)) == \
        [("a", "a"), ("a", "c"), ("b", "b"), ("b", "c")]


def test_h_diamond_is_the_left_converse():
    leq = ref.preorder_closure({("u", "v")}, ["u", "v", "w"])
    r = rel.compose_all(leq, frozenset({("v", "w")}), leq)
    m = Model(["u", "v", "w"], leq, boxes=[r],
              valuation={"p": {"w"}}, flavor="h")
    assert m.validate().ok
    assert sorted(m.boxes[0]) == [("u", "w"), ("v", "w")]
    assert sorted(dia_relation(m, 1)) == [("u", "w"), ("v", "w")]
    assert dia_relation(m, 1) == left_converse(m.boxes[0], m)
    assert sorted(back_box_relation(m, 1)) == [("w", "u"), ("w", "v")]
    assert ts("[]1 p", m) == ["u", "v", "w"]
    assert ts("<>1 p", m) == ["u", "v"]
    assert ts("<|1 p", m) == []
    assert ts("|>1 p", m) == ["u", "v"]


def test_gpt_operators():
    leq = ref.preorder_closure({("s", "t")}, ["s", "t"])
    r = rel.compose(frozenset({("s", "s")}), leq)
    s = rel.compose(rel.converse(leq), frozenset({("t", "t")}))
    m = Model(["s", "t"], leq, boxes=[r], diamonds=[s],
              valuation={"p": {"t"}}, flavor="gpt")
    assert m.validate().ok
    assert sorted(box_relation(m, 1)) == [("s", "s"), ("s", "t")]
    assert sorted(back_box_relation(m, 1)) == [("s", "t"), ("t", "t")]
    assert ts("[]1 p", m) == ["t"]
    assert ts("<>1 p", m) == ["t"]
    assert ts("<|1 p", m) == []
    assert ts("|>1 p", m) == ["s", "t"]


EK = Model.make(["1", "2", "3"], [],
                boxes=[{("1", "2")}, {("2", "3")}],
                valuation={"p": {"1", "2", "3"}, "q": {"3"}}, flavor="ek")


def test_ek_boxes_and_common_knowledge():
    assert EK.validate().ok
    assert sorted(ck_relation(EK)) == [("1", "2"), ("1", "3"), ("2", "3")]
    assert sorted(ck_relation(EK, reflexive=True)) == \
        [("1", "1"), ("1", "2"), ("1", "3"),
         ("2", "2"), ("2", "3"), ("3", "3")]
    assert ts("[]1 q", EK) == ["2", "3"]
    assert ts("[]2 q", EK) == ["1", "2", "3"]
    assert ts("C p", EK) == ["1", "2", "3"]
    assert ts("C q", EK) == ["2", "3"]
    assert ts("C p", EK, ck_reflexive=True) == ["1", "2", "3"]
    assert ts("C q", EK, ck_reflexive=True) == ["3"]


def test_ck_outside_ek_is_rejected():
    with pytest.raises(FlavorError):
        truth_set(parse("C p"), WEDGE)


def test_nodes_of_unknown_classes_have_no_clause():
    # classes of each shape that are none of the package's own, at the
    # root and below one of its nodes
    class Odd(_Modal):
        """A modality of no flavor."""

    class Blank(_Const):
        """A constant of no flavor."""

    for f, name in [(Odd(1, kk.Atom("p")), "Odd"), (Blank(), "Blank"),
                    (kk.And(kk.Atom("p"), Odd(1, kk.Top())), "Odd"),
                    (kk.Box(1, kk.Or(Blank(), kk.Atom("q"))), "Blank")]:
        with pytest.raises(FlavorError,
                           match=f"^no evaluation clause for {name}$"):
            truth_set(f, WEDGE)
        assert (f, False) not in WEDGE._eval_cache


def test_ck_unfolds_once():
    f = parse("q -> p")
    ck = kk.Ck(f)
    unfolded = kk.And(kk.Box(1, kk.And(f, ck)), kk.Box(2, kk.And(f, ck)))
    assert truth_set(ck, EK) == truth_set(unfolded, EK)


def test_semantic_operator_matches_truth_set():
    m = WEDGE
    a = truth_set(parse("p"), m)
    b = truth_set(parse("q"), m)
    assert semantic_operator("arrow", m, a, b) == \
        truth_set(parse("p -> q"), m)
    assert semantic_operator("coarrow", m, a, b) == \
        truth_set(parse("p -< q"), m)
    assert semantic_operator("boxbar_1", m, a) == \
        truth_set(parse("[]1 p"), m)
    t = Model.make(["a", "b"], [], diamonds=[{("a", "b")}],
                   valuation={"p": {"b"}})
    assert semantic_operator("diabar_1", t, truth_set(parse("p"), t)) == \
        truth_set(parse("<>1 p"), t)


def test_semantic_operator_errors():
    a = truth_set(parse("p"), WEDGE)
    with pytest.raises(ValueError):
        semantic_operator("boxbar_1", WEDGE, a, a)
    with pytest.raises(ValueError):
        semantic_operator("arrow", WEDGE, a)
    with pytest.raises(ValueError):
        semantic_operator("squiggle", WEDGE, a)
    with pytest.raises(PreconditionError):
        semantic_operator("boxbar_1", WEDGE, frozenset({"y"}))


def test_semantic_operator_rejects_states_outside_the_model():
    a = truth_set(parse("p"), WEDGE)
    with pytest.raises(ModelFormatError, match="unknown state 'nope'"):
        semantic_operator("boxbar_1", WEDGE, {"nope"})
    with pytest.raises(ModelFormatError, match="unknown state 'b'"):
        semantic_operator("arrow", WEDGE, a, {"z", "b", "c"})
    # unknown states are named before a non-upset argument
    with pytest.raises(ModelFormatError, match="unknown state 'nope'"):
        semantic_operator("coarrow", WEDGE, {"y"}, {"nope"})


FLAVOR_FRAGMENTS = [
    ("standard", kk.Fragment("biint", 2, 2), dict(n_boxes=2, n_diamonds=2)),
    ("fs", kk.Fragment("int", 1, 1), dict()),
    ("gpt", kk.Fragment("biint", 1, 1, True), dict()),
    ("tense", kk.Fragment("biint", 1, 1, True), dict()),
    ("h", kk.Fragment("biint", 1, 1, True), dict()),
    ("ek", kk.Fragment("int", 2, 0), dict(n_boxes=2)),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(FLAVOR_FRAGMENTS),
       st.booleans())
def test_truth_sets_are_upward_closed(seed, row, strict):
    flavor, frag, kw = row
    rng = random.Random(seed)
    m = random_model(rng, flavor, n_states=5, strict=strict, **kw)
    assert m.validate().ok
    f = random_formula(rng, frag, 3, allow_ck=(flavor == "ek"))
    assert ref.is_upset(m.leq, truth_set(f, m))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_monotone_operators_respect_inclusion(seed):
    rng = random.Random(seed)
    m = random_model(rng, "standard", n_states=5, n_boxes=1, n_diamonds=1,
                     atoms=("p", "q"))
    a = truth_set(parse("p & q"), m)
    b = truth_set(parse("p"), m)
    assert a <= b
    assert truth_set(parse("[]1 (p & q)"), m) <= truth_set(parse("[]1 p"), m)
    assert truth_set(parse("<>1 (p & q)"), m) <= truth_set(parse("<>1 p"), m)


# ---------------------------------------------------------------------------
# Reference evaluator: every node works on frozensets, and every modal
# node applies a successor map to an effective relation built afresh
# by the previous pair-based readers, so that nothing here runs on the
# model's bit rows or its successor table.


def _ref_forall(m, relation, a):
    succ = ref.successors(relation)
    return frozenset(x for x in m.states if succ.get(x, frozenset()) <= a)


def _ref_exists(m, relation, a):
    succ = ref.successors(relation)
    return frozenset(x for x in m.states if succ.get(x, frozenset()) & a)


def _ref_imp(m, a, b):
    up = ref.successors(m.leq)
    return frozenset(x for x in m.states if up.get(x, set()) & a <= b)


def _ref_sub(m, a, b):
    down = ref.successors(ref.converse(m.leq))
    return frozenset(x for x in m.states if down.get(x, set()) & a - b)


def reference_truth_set(f, m, ck_reflexive=False):
    def ev(g):
        return reference_truth_set(g, m, ck_reflexive)

    if isinstance(f, kk.Atom):
        return m.valuation.get(f.name, frozenset())
    if isinstance(f, kk.Top):
        return m.state_set
    if isinstance(f, kk.Bot):
        return frozenset()
    if isinstance(f, kk.And):
        return ev(f.left) & ev(f.right)
    if isinstance(f, kk.Or):
        return ev(f.left) | ev(f.right)
    if isinstance(f, kk.Imp):
        return _ref_imp(m, ev(f.left), ev(f.right))
    if isinstance(f, kk.Sub):
        return _ref_sub(m, ev(f.left), ev(f.right))
    if isinstance(f, kk.Box):
        return _ref_forall(m, ref.box_relation(m, f.index), ev(f.body))
    if isinstance(f, kk.Dia):
        return _ref_exists(m, ref.dia_relation(m, f.index), ev(f.body))
    if isinstance(f, kk.TDia):
        return _ref_exists(m, ref.back_dia_relation(m, f.index), ev(f.body))
    if isinstance(f, kk.TBox):
        return _ref_forall(m, ref.back_box_relation(m, f.index), ev(f.body))
    if isinstance(f, kk.Ck):
        return _ref_forall(m, ref.ck_relation(m, ck_reflexive), ev(f.body))
    raise FlavorError(f"no evaluation clause for {type(f).__name__}")


def reference_operator(kind, m, a, b=None):
    for arg in (a, b):
        if arg is not None and not ref.is_upset(m.leq, frozenset(arg)):
            raise PreconditionError(
                f"semantic operator arguments must be upsets; "
                f"{sorted(arg)} is not upward closed")
    if kind == "arrow":
        return _ref_imp(m, a, b)
    if kind == "coarrow":
        return _ref_sub(m, a, b)
    name, _, suffix = kind.rpartition("_")
    if name == "boxbar":
        return _ref_forall(m, ref.box_relation(m, int(suffix)), a)
    return _ref_exists(m, ref.dia_relation(m, int(suffix)), a)


def outcome(fn, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (FlavorError, PreconditionError) as exc:
        return (type(exc), str(exc))


# Every modal operator and both arrows, on every flavor: where a flavor
# cannot interpret one, both evaluators must raise the same FlavorError.
EVERYTHING = kk.Fragment("biint", 2, 2, True)
KINDS = ("arrow", "coarrow", "boxbar_1", "boxbar_2", "diabar_1", "diabar_2")
FIXED = [parse(text) for text in ("C q", "C (p -> q)", "[]2 q", "<>2 p",
                                  "<|1 p", "|>1 q", "<|2 (p -< q)")]


def _differential_models():
    for flavor, frag, kw in FLAVOR_FRAGMENTS:
        for seed in range(6):
            rng = random.Random(seed)
            m = random_model(rng, flavor, n_states=5, strict=seed % 2 == 0,
                             **kw)
            yield m, frag, rng
    # spines(12) has 79 states, so its masks are long and sparse
    gallery = [build_example("wedge"), build_example("wedge_strict"),
               build_example("spines", (3,)), build_example("spines", (12,)),
               build_example("porcupine", (2,)),
               build_example("porcupine_trimmed", (2,)),
               build_example("omega_chain", (3,))]
    for seed, m in enumerate(gallery):
        yield m, kk.Fragment("biint", 1, 1), random.Random(seed)
    yield EK, kk.Fragment("int", 2, 0), random.Random(0)


def test_evaluators_agree_with_the_reference():
    for m, frag, rng in _differential_models():
        ek = m.flavor == "ek"
        formulas = FIXED + [random_formula(rng, frag, 3, allow_ck=ek)
                            for _ in range(12)]
        formulas += [random_formula(rng, EVERYTHING, 2, allow_ck=True)
                     for _ in range(12)]
        sets = [m.state_set]
        for f in formulas:
            for ck in (False, True):
                want = outcome(reference_truth_set, f, m, ck)
                assert outcome(truth_set, f, m, ck) == want, (m, f, ck)
                if isinstance(want, frozenset):
                    sets.append(want)
        sets = sorted(set(sets), key=sorted)[:5] + [frozenset({m.states[0]})]
        for kind in KINDS:
            for a in sets:
                arg_lists = ([(a, b) for b in sets]
                             if kind in ("arrow", "coarrow") else [(a,)])
                for args in arg_lists:
                    assert outcome(semantic_operator, kind, m, *args) == \
                        outcome(reference_operator, kind, m, *args), \
                        (m, kind, args)


def test_effective_relations_are_built_once_per_model(monkeypatch):
    # an h diamond is the left converse, two row compositions, and the
    # model's table keeps it for every later node of the chain
    calls = []
    compose_rows = rel._compose_rows

    def counting(r, s):
        calls.append(None)
        return compose_rows(r, s)

    monkeypatch.setattr(rel, "_compose_rows", counting)
    counts = []
    for depth in (50, 150):
        m = random_model(random.Random(7), "h", n_states=15)
        chain = parse("<>1 " * depth + "p")
        calls.clear()
        truth_set(chain, m)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _height(f) -> int:
    """Edges on the longest path from f down to a leaf."""
    children = [getattr(f, name) for name in ("left", "right", "body")
                if hasattr(f, name)]
    return 1 + max(map(_height, children)) if children else 0


def test_eval_cache_stays_bounded(monkeypatch):
    cap = 8
    monkeypatch.setattr(semantics, "MAX_EVAL_CACHE", cap)
    evaluate = semantics.truth_set
    seen = []

    def watching(f, m, ck_reflexive=False):
        out = evaluate(f, m, ck_reflexive)
        seen.append(len(m._eval_cache))
        return out

    monkeypatch.setattr(semantics, "truth_set", watching)
    emptied = 0
    for m, frag, rng in _differential_models():
        ek = m.flavor == "ek"
        for depth in (2, 4, 6):
            f = random_formula(rng, frag, depth, allow_ck=ek)
            for ck in (False, True):
                seen.clear()
                assert outcome(watching, f, m, ck) == \
                    outcome(reference_truth_set, f, m, ck), (m, f, ck)
                assert max(seen, default=0) <= cap + _height(f) + 1
                emptied += any(b < a for a, b in zip(seen, seen[1:]))
    assert emptied  # the cap was reached, and the cache emptied


def test_mask_scans_on_both_sides_of_the_switch():
    # short lists build the result a bit at a time, long ones read it
    # off a string of flags; both must set bit k exactly where masks[k]
    # misses (or meets) d, d negative too, as the _Kernel passes ~a
    rng = random.Random(29)
    edge = semantics._LONG_SCAN
    for n in (0, 1, 2, edge - 1, edge, edge + 1, 3 * edge):
        for density in (0, 0.05, 0.5, 1):
            masks = [sum(1 << j for j in range(n) if rng.random() < density)
                     for _ in range(n)]
            for d in (0, rng.getrandbits(n + 1), ~rng.getrandbits(n + 1)):
                meeting = sum(1 << k for k, mask in enumerate(masks)
                              if mask & d)
                assert semantics._bits_meeting(masks, d) == meeting
                assert (semantics._bits_disjoint(masks, d)
                        == meeting ^ ((1 << n) - 1))


def test_stored_entries_and_their_masks():
    # each clause shape's stored relation, as successor masks that
    # decode to its pairs; a shape's converse entry holds the
    # transposed masks
    converse = {"imp": "sub", "box": "tdia", "dia": "tbox"}
    for seed in range(6):
        m = random_model(random.Random(seed), "standard", n_states=5,
                         n_boxes=2, n_diamonds=1)
        relations = {("imp", None): m.leq, ("box", 1): m.boxes[0],
                     ("box", 2): m.boxes[1], ("dia", 1): m.diamonds[0]}
        for (shape, index), relation in relations.items():
            masks = semantics._succ_masks(m, shape, index)
            assert {(x, y) for x, row in zip(m.states, masks)
                    for y in rel._names(m.states, row)} == relation
            back = semantics._succ_masks(m, converse[shape], index)
            for i in range(len(m.states)):
                assert all((masks[i] >> j & 1) == (back[j] >> i & 1)
                           for j in range(len(m.states)))


# The docstring table's factors as clause shapes, and its columns.
_FACTORS = {"R": "box", "S": "dia", "≤": "imp", "≥": "sub",
            "R\u0306": "tdia", "S\u0306": "tbox"}
_COLUMNS = (Box, Dia, TDia, TBox)
_READERS = {Box: box_relation, Dia: dia_relation, TDia: back_dia_relation,
            TBox: back_box_relation}


def test_effective_relations_are_the_docstring_table():
    lines = semantics.__doc__.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.split()[:1] == ["flavor"])
    rows = [line.split() for line in lines[head + 1:head + 7]]
    assert [row[0] for row in rows] == list(semantics._EFFECTIVE)
    for flavor, *cells in rows:
        m = random_model(random.Random(flavor), flavor, n_states=4,
                         n_diamonds=int(_SHAPES[flavor][1] != 0))
        effective = semantics._EFFECTIVE[flavor]
        assert set(effective) == {op for op, cell in zip(_COLUMNS, cells)
                                  if cell != "-"}
        for op, cell in zip(_COLUMNS, cells):
            if cell != "-":
                assert effective[op] == tuple(
                    _FACTORS[factor.split("_")[0]]
                    for factor in cell.split("∘")), (flavor, op)
                continue
            message = (f"flavor {flavor!r} does not interpret "
                       f"{re.escape(_MODAL_SYMBOL[op])}$")
            with pytest.raises(FlavorError, match=message):
                _READERS[op](m, 1)
