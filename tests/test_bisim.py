"""Clause sets, refinement, and the resulting fixpoints."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import kripkit as kk
from kripkit import Fragment, Model, Partition, bisim, build_example
from kripkit.bisim import (ConditionSet, bisimilarity_partition,
                           conditions_for, directed_conversion,
                           greatest_bisimulation, is_bisimulation)
from kripkit.errors import FlavorError, InternalCheckError, PreconditionError
from kripkit.sampling import random_model
from test_refinement_reference import resolved_tasks

WEDGE = build_example("wedge")
WEDGE_STRICT = build_example("wedge_strict")
BIINT_BOX = conditions_for(Fragment("biint", 1, 0), "standard")
INT_BOX = conditions_for(Fragment("int", 1, 0), "standard")


def test_conditions_for_standard():
    assert BIINT_BOX == ConditionSet(
        order_forth=True, order_back=True, dual_forth=True, dual_back=True,
        boxes=(1,), diamonds=(), tdias=(), tboxes=())
    assert conditions_for(Fragment("int", 1, 0), "standard") == ConditionSet(
        order_forth=True, order_back=True, dual_forth=False, dual_back=False,
        boxes=(1,), diamonds=(), tdias=(), tboxes=())
    assert conditions_for(Fragment("intdual", 0, 1), "standard") == \
        ConditionSet(order_forth=False, order_back=False, dual_forth=True,
                     dual_back=True, boxes=(), diamonds=(1,), tdias=(),
                     tboxes=())
    assert conditions_for(Fragment("biint", 2, 1), "standard").boxes == (1, 2)
    assert conditions_for(Fragment("int", 0, 0), "standard").clause_names() \
        == ("atoms", "order_forth", "order_back")


def test_conditions_for_tense_flavors():
    for flavor in ("tense", "gpt"):
        c = conditions_for(Fragment("biint", 1, 1, True), flavor)
        assert c.boxes == (1,) and c.diamonds == (1,)
        assert c.tdias == (1,) and c.tboxes == (1,)
    c = conditions_for(Fragment("biint", 1, 0, True), "tense")
    assert c.tdias == (1,) and c.tboxes == ()
    c = conditions_for(Fragment("biint", 0, 1, True), "tense")
    assert c.tdias == () and c.tboxes == (1,)


def test_conditions_for_h():
    c = conditions_for(Fragment("biint", 0, 1, True), "h")
    assert c.clause_names() == (
        "atoms", "order_forth", "order_back", "dual_forth", "dual_back",
        "box1_zig", "box1_zag", "tdia1_zig", "tdia1_zag")


def test_conditions_for_ek_and_fs():
    c = conditions_for(Fragment("int", 2, 0), "ek")
    assert c.boxes == (1, 2) and c.diamonds == ()
    c = conditions_for(Fragment("int", 1, 1), "fs")
    assert c.boxes == (1,) and c.diamonds == ()
    c = conditions_for(Fragment("int", 0, 1), "fs")
    assert c.boxes == (1,)


def test_conditions_for_rejections():
    cases = [
        (Fragment("biint", 1, 0, True), "standard"),
        (Fragment("biint", 1, 1, True), "ek"),
        (Fragment("int", 1, 1), "ek"),
        (Fragment("int", 2, 0), "fs"),
        (Fragment("biint", 1, 1, True), "fs"),
        (Fragment("int", 1, 0), "h"),
        (Fragment("biint", 2, 0), "gpt"),
        (Fragment("biint", 1, 1, True), "nosuch"),
    ]
    for frag, flavor in cases:
        with pytest.raises(FlavorError):
            conditions_for(frag, flavor)


def test_clause_kind():
    loop = {("a", "a")}
    m = Model.make(["a"], [], boxes=[loop] * 10, diamonds=[loop] * 3)
    conditions = ConditionSet(True, True, True, True, boxes=(10,),
                              diamonds=(3,), tdias=(2,), tboxes=(1,))
    kind = {t.clause: (t.shape, t.index)
            for t in resolved_tasks(conditions, m, m)}
    assert kind["order_forth"] == ("imp", None)
    assert kind["order_back"] == ("imp", None)
    assert kind["dual_forth"] == ("sub", None)
    assert kind["dual_back"] == ("sub", None)
    assert kind["box10_zag"] == ("box", 10)
    assert kind["dia3_zig"] == ("dia", 3)
    assert kind["tdia2_zig"] == ("tdia", 2)
    assert kind["tbox1_zag"] == ("tbox", 1)


def test_wedge_refinement():
    fix, trace = greatest_bisimulation(WEDGE, WEDGE_STRICT, BIINT_BOX)
    assert sorted(fix) == [("y", "y"), ("z", "z")]
    assert trace.rounds == 1
    root = trace.by_pair()[("x", "x")]
    assert (root.stage, root.clause, root.side, root.transition) == \
        (1, "box1_zag", "right", ("x", "z"))
    atom_removals = trace.at_stage(0)
    assert all(r.clause == "atoms" for r in atom_removals)
    assert len(atom_removals) == 6


def test_spines_refinement():
    s1, s2 = build_example("spines", (1,)), build_example("spines", (2,))
    fix, trace = greatest_bisimulation(s1, s2, INT_BOX)
    assert sorted(fix) == \
        [("r", "s2_1"), ("s1_1", "s1_1"), ("s1_1", "s2_2")]
    assert trace.rounds == 2
    root = trace.by_pair()[("r", "r")]
    assert (root.stage, root.clause) == (2, "box1_zag")
    assert sorted((r.pair, r.clause) for r in trace.at_stage(1)) == [
        (("r", "s1_1"), "box1_zig"),
        (("r", "s2_2"), "box1_zig"),
        (("s1_1", "r"), "box1_zag"),
        (("s1_1", "s2_1"), "box1_zag"),
    ]


def test_is_bisimulation_reports_both_failures():
    viols = is_bisimulation({("x", "x")}, WEDGE, WEDGE_STRICT, BIINT_BOX)
    assert [(v.clause, v.side, v.transition) for v in viols] == [
        ("box1_zig", "left", ("x", "y")),
        ("box1_zag", "right", ("x", "y")),
    ]
    assert str(viols[0]) == \
        "pair ('x', 'x') fails box1_zig: left transition x -> y has no match"
    assert is_bisimulation(set(), WEDGE, WEDGE_STRICT, BIINT_BOX) == []


def test_is_bisimulation_checks_carriers_and_flavors():
    with pytest.raises(PreconditionError):
        is_bisimulation({("x", "nope")}, WEDGE, WEDGE_STRICT, BIINT_BOX)
    other = Model(["a"], {("a", "a")}, boxes=[set()], flavor="fs")
    with pytest.raises(PreconditionError):
        greatest_bisimulation(WEDGE, other, BIINT_BOX)


def test_refinement_needs_each_zig_with_its_zag():
    for one_way, clauses in ((ConditionSet(order_forth=True), []),
                             (ConditionSet(order_forth=True, order_back=True,
                                           dual_back=True), ["dual_back"])):
        for refine in (lambda c: greatest_bisimulation(WEDGE, WEDGE_STRICT, c),
                       lambda c: bisimilarity_partition(WEDGE, c)):
            with pytest.raises(PreconditionError, match="zig clause paired"):
                refine(one_way)
        # checking a given relation against one-way clauses still works
        assert [v.clause for v in is_bisimulation(
            {("z", "z")}, WEDGE, WEDGE_STRICT, one_way)] == clauses


def test_fixpoint_is_itself_a_bisimulation():
    fix, _ = greatest_bisimulation(WEDGE, WEDGE_STRICT, BIINT_BOX)
    assert is_bisimulation(fix, WEDGE, WEDGE_STRICT, BIINT_BOX) == []


def test_bisimilarity_partition_merges_twin_spines():
    part = bisimilarity_partition(build_example("spines", (2,)), INT_BOX)
    assert part.blocks() == {
        "r": frozenset({"r"}),
        "s1_1": frozenset({"s1_1", "s2_2"}),
        "s2_1": frozenset({"s2_1"}),
    }


def test_directed_conversion():
    b = frozenset({("y", "y"), ("z", "z")})
    assert directed_conversion(b) == (b, b)
    assert directed_conversion((b, b)) == b
    asym = frozenset({("y", "z")})
    assert directed_conversion((asym, frozenset({("z", "y")}))) == asym
    assert directed_conversion((asym, frozenset())) == frozenset()
    # a tuple of two pairs of names is a relation, not a directed pair
    two = (("x", "y"), ("y", "z"))
    assert directed_conversion(two) == (frozenset(two),
                                        frozenset({("y", "x"), ("z", "y")}))


ROWS = [
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("tense", Fragment("biint", 1, 1, True), dict()),
    ("h", Fragment("biint", 1, 1, True), dict()),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
    ("fs", Fragment("int", 1, 1), dict()),
    ("gpt", Fragment("biint", 1, 1, True), dict()),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ROWS))
def test_greatest_bisimulation_is_sound_and_staged(seed, row):
    flavor, frag, kw = row
    rng = random.Random(seed)
    m = random_model(rng, flavor, n_states=4, strict=True, **kw)
    m2 = random_model(rng, flavor, n_states=4, strict=True, **kw)
    conds = conditions_for(frag, flavor)
    fix, trace = greatest_bisimulation(m, m2, conds)
    assert is_bisimulation(fix, m, m2, conds) == []
    stages = [r.stage for r in trace.removals]
    assert stages == sorted(stages)
    assert all(r.stage <= trace.rounds for r in trace.removals)
    assert len(fix) + len(trace.removals) == len(m.states) * len(m2.states)


def _self_blocks(m: Model, conds) -> Partition:
    """The classes of the greatest bisimulation of m with itself."""
    fix, _ = greatest_bisimulation(m, m, conds)
    return Partition.from_blocks(
        {frozenset(y for x2, y in fix if x2 == x) for x in m.states})


def test_bisimilarity_partition_is_the_blocks_of_the_self_refinement():
    # the partition skips judging the pairs each round removes; its
    # rounds must still end at the fixpoint the judged refinement
    # reaches
    merged = 0
    for seed in range(120):
        flavor, frag, kw = ROWS[seed % len(ROWS)]
        rng = random.Random(seed)
        m = random_model(rng, flavor, n_states=rng.randint(1, 30),
                         strict=True, atoms=("p",)[:seed % 2], **kw)
        for f in (frag, Fragment(frag.base), Fragment("biint", 0, 0)):
            if flavor == "h" and f.base != "biint":
                continue
            conds = conditions_for(f, flavor)
            part = bisimilarity_partition(m, conds)
            assert part == _self_blocks(m, conds), (seed, f)
            merged += len(part.blocks()) < len(m.states)
    assert merged > 50, merged
    for name, params in (("spines", (9,)), ("porcupine", (3,)),
                         ("porcupine_trimmed", (3,)), ("omega_chain", (4,))):
        m = build_example(name, params)
        for f in (Fragment("int", 1), Fragment("biint")):
            if not m.boxes and f.n_boxes:
                continue
            conds = conditions_for(f, m.flavor)
            assert bisimilarity_partition(m, conds) == _self_blocks(m, conds)


def test_bisimilarity_partition_rejects_a_fixpoint_that_is_no_equivalence(
        monkeypatch):
    m = build_example("spines", (2,))  # r, s1_1, s2_1, s2_2
    for rows, message in (
            ([0b0001, 0b0010, 0b0100, 0b0000], "not reflexive at s2_2"),
            ([0b0011, 0b0010, 0b0100, 0b1000], "not an equivalence at s1_1"),
            ([0b0011, 0b0111, 0b0110, 0b1000], "not an equivalence at ")):
        monkeypatch.setattr(bisim, "_refine", lambda *_, **__: (
            list(rows), [], 0))
        with pytest.raises(InternalCheckError, match=f"^bisimilarity is "
                                                     f"{message}"):
            bisimilarity_partition(m, INT_BOX)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_self_bisimilarity_is_an_equivalence(seed):
    rng = random.Random(seed)
    m = random_model(rng, "standard", n_states=5, n_boxes=1, n_diamonds=1,
                     strict=True)
    conds = conditions_for(Fragment("biint", 1, 1), "standard")
    part = bisimilarity_partition(m, conds)
    assert part.covers(m.states)
    fix, _ = greatest_bisimulation(m, m, conds)
    assert {(s, s) for s in m.states} <= fix
    assert {(b, a) for (a, b) in fix} == fix


def test_clause_names_list_the_resolved_clauses():
    m = random_model(random.Random(5), "standard", n_states=3, n_boxes=2,
                     n_diamonds=2)
    modal = [((), (), (), ()), ((1,), (), (), ()), ((), (2,), (), (1,)),
             ((2, 1), (1,), (1, 2), (2,))]
    for flags in itertools.product((False, True), repeat=4):
        for boxes, diamonds, tdias, tboxes in modal:
            c = ConditionSet(*flags, boxes=boxes, diamonds=diamonds,
                             tdias=tdias, tboxes=tboxes)
            assert c.clause_names() == (
                "atoms", *[t.clause for t in resolved_tasks(c, m, m)])
    assert c.clause_names() == (
        "atoms", "order_forth", "order_back", "dual_forth", "dual_back",
        "box2_zig", "box2_zag", "box1_zig", "box1_zag", "dia1_zig",
        "dia1_zag", "tdia1_zig", "tdia1_zag", "tdia2_zig", "tdia2_zag",
        "tbox2_zig", "tbox2_zag")
    # counts are checked in clause order, the left model first
    small = random_model(random.Random(6), "standard", n_states=3)
    for c, m1, m2, message in (
            (ConditionSet(diamonds=(2,), tdias=(3,)), m, small,
             "dia relation 2 but the model stores 0"),
            (ConditionSet(boxes=(1,), tboxes=(3,)), small, m,
             "dia relation 3 but the model stores 0"),
            (ConditionSet(tdias=(2, 3), tboxes=(3,)), m, m,
             "box relation 3 but the model stores 2")):
        with pytest.raises(FlavorError, match=f"clause needs {message}$"):
            resolved_tasks(c, m1, m2)
