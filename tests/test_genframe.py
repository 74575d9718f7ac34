"""Set algebras over frames and the descriptive condition."""

import pytest

import kripkit as kk
from kripkit import Fragment, Model, build_example, genframe
from kripkit.errors import FlavorError, ModelFormatError, PreconditionError
from kripkit.genframe import (SetAlgebra, algebra_from_lists, close_algebra,
                              descriptive_box_check, is_general_model)

WEDGE = build_example("wedge")


def test_closure_always_holds_bottom_and_top():
    two = Model.make(["0", "1"], [("0", "1")])
    alg = close_algebra(two, [{"1"}], [])
    assert alg.to_lists() == [[], ["1"], ["0", "1"]]


def test_wedge_closure_under_arrow_and_box():
    alg = close_algebra(WEDGE, [WEDGE.valuation["p"], WEDGE.valuation["q"]],
                        ["arrow", "boxbar_1"])
    assert alg.to_lists() == [[], ["x"], ["z"], ["x", "z"], ["y", "z"],
                              ["x", "y", "z"]]
    assert frozenset({"y", "z"}) in alg
    assert {"x"} in alg
    assert {"y"} not in alg
    assert len(alg) == 6


def test_closure_rejects_foreign_generators():
    with pytest.raises(ModelFormatError):
        close_algebra(WEDGE, [{"nope"}], [])


def test_closure_rejects_unknown_ops():
    with pytest.raises(ValueError):
        close_algebra(WEDGE, [], ["squiggle"])
    with pytest.raises(ValueError):
        close_algebra(WEDGE, [], ["boxbar_"])


def test_closure_refuses_families_past_the_cap(monkeypatch):
    # spines have a discrete order, so n singletons close to 2^n + 1 sets
    spines = build_example("spines", (6,))
    singletons = [{x} for x in spines.states[:17]]
    with pytest.raises(PreconditionError, match="more than 50000 sets"):
        close_algebra(spines, singletons, [])
    monkeypatch.setattr(genframe, "MAX_ALGEBRA_SIZE", 2 ** 4 + 1)
    assert len(close_algebra(spines, singletons[:4], [])) == 17
    with pytest.raises(PreconditionError, match="more than 17 sets"):
        close_algebra(spines, singletons[:5], [])


def test_is_general_model():
    alg = close_algebra(WEDGE, [WEDGE.valuation["p"], WEDGE.valuation["q"]],
                        ["arrow", "coarrow", "boxbar_1"])
    assert is_general_model(WEDGE, alg, Fragment("biint", 1, 0))

    # Dropping q's truth set breaks the valuation requirement.
    partial = SetAlgebra([frozenset(), WEDGE.state_set,
                          WEDGE.valuation["p"]])
    assert not is_general_model(WEDGE, partial, Fragment("int", 0, 0))

    # A non-upset member disqualifies the family outright.
    crooked = SetAlgebra([frozenset(), WEDGE.state_set,
                          WEDGE.valuation["p"], WEDGE.valuation["q"],
                          frozenset({"y"})])
    assert not is_general_model(WEDGE, crooked, Fragment("int", 0, 0))

    # Closed under meets and joins but not under arrow.
    open_arrow = SetAlgebra([frozenset(), WEDGE.state_set,
                             WEDGE.valuation["p"], WEDGE.valuation["q"]])
    assert not is_general_model(WEDGE, open_arrow, Fragment("int", 0, 0))


def test_is_general_model_checks_operators_in_order():
    # box(∅) = {y, z} here: a family without it fails the box before
    # the missing diamond relation is looked at
    bare = Model.make(["x", "y", "z"], [("y", "z")], boxes=[{("x", "y")}])
    frag = Fragment("int", 1, 1)
    assert not is_general_model(bare, SetAlgebra([set(), bare.state_set]),
                                frag)
    with pytest.raises(FlavorError):
        is_general_model(bare, SetAlgebra([set(), {"y", "z"},
                                           bare.state_set]), frag)


def test_is_general_model_rejects_states_outside_the_model():
    # the least foreign state is named before any other test, even one
    # that would answer False
    alg = SetAlgebra([[], ["x", "y", "z"], ["y", "z"], ["z"], ["zz"]])
    with pytest.raises(ModelFormatError, match="unknown state 'zz'"):
        is_general_model(WEDGE, alg, Fragment("int", 1, 0))
    with pytest.raises(ModelFormatError, match="unknown state 'a'"):
        is_general_model(WEDGE, SetAlgebra([["zz", "x"], ["a"]]),
                         Fragment("int"))


def test_descriptive_box_check():
    alg = close_algebra(WEDGE, [WEDGE.valuation["p"], WEDGE.valuation["q"]],
                        ["arrow", "boxbar_1"])
    assert descriptive_box_check(WEDGE, alg) == (False, ("x", "z"))

    strict = build_example("wedge_strict")
    alg_s = close_algebra(strict,
                          [strict.valuation["p"], strict.valuation["q"]],
                          ["arrow", "boxbar_1"])
    assert descriptive_box_check(strict, alg_s) == (True, None)


def test_descriptive_check_rejects_states_outside_the_model():
    with pytest.raises(ModelFormatError, match="'nope'"):
        descriptive_box_check(WEDGE, SetAlgebra([{"nope"}]))


def test_algebra_round_trip_and_equality():
    alg = close_algebra(WEDGE, [WEDGE.valuation["p"]], ["arrow"])
    again = algebra_from_lists(alg.to_lists())
    assert again == alg
    assert algebra_from_lists([["lone"]]) != alg
    with pytest.raises(ModelFormatError):
        algebra_from_lists([[1]])


def test_algebra_from_lists_checks_the_carrier():
    with pytest.raises(ModelFormatError):
        algebra_from_lists([["x", "bogus"]], m=WEDGE)
