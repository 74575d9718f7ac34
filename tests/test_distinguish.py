"""Witness synthesis, verification, and the equivalence oracle."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import kripkit as kk
from kripkit import Fragment, build_example, nesting_depth, to_string
from kripkit.bisim import conditions_for, greatest_bisimulation
from kripkit.distinguish import (bounded_equivalence_oracle,
                                 hennessy_milner_check, synthesize,
                                 verify_witnesses)
from kripkit.errors import FlavorError, PreconditionError
from kripkit.sampling import random_model
from kripkit.semantics import truth_set

WEDGE = build_example("wedge")
WEDGE_STRICT = build_example("wedge_strict")
SPINE1 = build_example("spines", (1,))
SPINE2 = build_example("spines", (2,))


def test_synthesis_needs_strict_condensation_for_modal_clauses():
    with pytest.raises(PreconditionError):
        synthesize(WEDGE, WEDGE_STRICT, Fragment("biint", 1, 0))
    with pytest.raises(PreconditionError):
        hennessy_milner_check(WEDGE, WEDGE_STRICT, Fragment("biint", 1, 0))


def test_synthesis_on_order_clauses_tolerates_non_strict_models():
    # No modal clauses, so the order alone drives the game.
    fix, wits = synthesize(WEDGE, WEDGE_STRICT, Fragment("biint", 0, 0))
    assert ("x", "x") in fix
    assert verify_witnesses(wits, WEDGE, WEDGE_STRICT) == []


def test_atom_witnesses_on_the_strict_wedge():
    fix, wits = synthesize(WEDGE_STRICT, WEDGE_STRICT, Fragment("biint", 1, 0))
    assert sorted(fix) == [("x", "x"), ("y", "y"), ("z", "z")]
    got = {(w.pair, to_string(w.formula), w.orientation, w.stage)
           for w in wits}
    assert got == {
        (("x", "y"), "p", "right", 0),
        (("x", "z"), "p", "right", 0),
        (("y", "x"), "p", "left", 0),
        (("y", "z"), "q", "right", 0),
        (("z", "x"), "p", "left", 0),
        (("z", "y"), "q", "left", 0),
    }
    assert verify_witnesses(wits, WEDGE_STRICT, WEDGE_STRICT) == []


def test_spine_witnesses():
    fix, wits = synthesize(SPINE1, SPINE2, Fragment("int", 1, 0))
    table = {w.pair: w for w in wits}
    root = table[("r", "r")]
    assert to_string(root.formula) == "[]1 []1 F"
    assert root.orientation == "left" and root.stage == 2
    assert to_string(table[("r", "s1_1")].formula) == "[]1 F"
    assert root.to_dict() == {"pair": ["r", "r"], "formula": "[]1 []1 F",
                              "orientation": "left", "stage": 2}
    assert verify_witnesses(wits, SPINE1, SPINE2) == []
    # The root really is told apart: left satisfies, right does not.
    assert "r" in truth_set(root.formula, SPINE1)
    assert "r" not in truth_set(root.formula, SPINE2)


def test_porcupine_witness_is_a_subtraction():
    p, t = build_example("porcupine", (2,)), \
        build_example("porcupine_trimmed", (2,))
    fix, wits = synthesize(p, t, Fragment("biint", 0, 0))
    top = next(w for w in wits if w.pair == ("x", "x"))
    assert to_string(top.formula) == "p1 & p2 -< q"
    assert top.orientation == "left" and top.stage == 1
    assert ("x", "x") not in fix


def test_witnessability_preconditions():
    with pytest.raises(PreconditionError):
        synthesize(WEDGE_STRICT, WEDGE_STRICT, Fragment("intdual", 1, 0))
    with pytest.raises(PreconditionError):
        synthesize(WEDGE_STRICT, WEDGE_STRICT, Fragment("int", 0, 1))
    # the clause set's own errors come first
    fs = random_model(random.Random(3), "fs", n_states=4, strict=True)
    with pytest.raises(FlavorError, match="one relation per modality"):
        synthesize(fs, fs, Fragment("intdual", 2, 0))


def test_synthesize_rejects_a_huge_count_before_building_anything():
    # a clause set with one index per count once took 40 MB here
    left, right = build_example("spines", (3,)), build_example("spines", (4,))
    tracemalloc.start()
    try:
        with pytest.raises(FlavorError, match="^clause needs box relation 2 "
                           "but the model stores 1$"):
            synthesize(left, right, Fragment("int", 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fs_int_with_both_modalities_is_witnessable():
    # The fs diamond rides the box relation, so only box clauses appear
    # and implication is enough to express every witness.
    m1 = random_model(random.Random(3), "fs", n_states=4, strict=True)
    m2 = random_model(random.Random(4), "fs", n_states=4, strict=True)
    report = hennessy_milner_check(m1, m2, Fragment("int", 1, 1))
    assert report.passed and report.oracle_exact


def test_oracle_on_the_wedge_pair():
    # Logical equivalence is strictly coarser than bisimilarity here:
    # the wedge is not strictly condensed, and (x, x) slips through.
    frag = Fragment("biint", 1, 0)
    conds = conditions_for(frag, "standard")
    fix, _ = greatest_bisimulation(WEDGE, WEDGE_STRICT, conds)
    assert ("x", "x") not in fix
    oracle, exact = bounded_equivalence_oracle(WEDGE, WEDGE_STRICT, frag)
    assert exact
    assert sorted(oracle) == [("x", "x"), ("y", "y"), ("z", "z")]


def test_oracle_budget_semantics():
    frag = Fragment("biint", 1, 0)
    rel0, exact0 = bounded_equivalence_oracle(WEDGE, WEDGE_STRICT, frag,
                                              budget=0)
    assert not exact0
    assert sorted(rel0) == [("x", "x"), ("y", "y"), ("z", "z")]
    rel3, exact3 = bounded_equivalence_oracle(WEDGE, WEDGE_STRICT, frag,
                                              budget=3)
    assert exact3 and rel3 == rel0


def test_oracle_rejects_a_huge_count_before_building_anything():
    frag = Fragment("int", 10**9, 0)
    tracemalloc.start()
    try:
        with pytest.raises(FlavorError, match="no box relation 2"):
            bounded_equivalence_oracle(WEDGE, WEDGE, frag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_negative_budgets_are_rejected():
    frag = Fragment("biint", 0, 0)
    with pytest.raises(PreconditionError, match="budget"):
        bounded_equivalence_oracle(WEDGE, WEDGE_STRICT, frag, budget=-1)
    with pytest.raises(PreconditionError, match="budget"):
        hennessy_milner_check(WEDGE, WEDGE_STRICT, frag, budget=-3)


def test_hm_check_reports_budget_exhaustion():
    report = hennessy_milner_check(SPINE1, SPINE2, Fragment("int", 1, 0),
                                   budget=0)
    assert not report.passed and not report.oracle_exact
    assert any("budget" in problem for problem in report.problems)


def test_hm_check_passes_on_spines():
    report = hennessy_milner_check(SPINE1, SPINE2, Fragment("int", 1, 0))
    assert report.passed and report.oracle_exact
    assert report.problems == ()
    assert sorted(report.fixpoint) == \
        [("r", "s2_1"), ("s1_1", "s1_1"), ("s1_1", "s2_2")]
    assert report.oracle == report.fixpoint


ROWS = [
    ("standard", Fragment("int", 1, 0), dict(n_boxes=1, n_diamonds=0)),
    ("standard", Fragment("intdual", 0, 1), dict(n_boxes=0, n_diamonds=1)),
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("tense", Fragment("biint", 1, 1, True), dict()),
    ("h", Fragment("biint", 1, 1, True), dict()),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ROWS))
def test_witness_depth_is_bounded_by_its_stage(seed, row):
    flavor, frag, kw = row
    rng = random.Random(seed)
    m = random_model(rng, flavor, n_states=4, strict=True, **kw)
    m2 = random_model(rng, flavor, n_states=4, strict=True, **kw)
    fix, wits = synthesize(m, m2, frag)
    assert verify_witnesses(wits, m, m2) == []
    for w in wits:
        assert nesting_depth(w.formula) <= w.stage
        assert frag.admits(w.formula)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ROWS))
def test_oracle_contains_the_fixpoint(seed, row):
    flavor, frag, kw = row
    rng = random.Random(seed)
    m = random_model(rng, flavor, n_states=4, strict=True, **kw)
    m2 = random_model(rng, flavor, n_states=4, strict=True, **kw)
    fix, _ = greatest_bisimulation(m, m2, conditions_for(frag, flavor))
    oracle, exact = bounded_equivalence_oracle(m, m2, frag)
    assert exact
    assert fix <= oracle
