"""Model construction, validation, surgery and serialization."""

import json

import pytest
from hypothesis import given, strategies as st

import kripkit as kk
from kripkit import Model, Partition, build_example, dualize, strictify
from kripkit.errors import FlavorError, ModelFormatError
from kripkit.model import (MAX_EXAMPLE_SIZE, _example_size,
                           enrich_valuation, load_model, model_from_dict,
                           model_to_dict, model_to_json, quotient)


def test_make_closes_the_order():
    m = Model.make(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert ("a", "c") in m.leq
    assert all((s, s) in m.leq for s in m.states)


def test_constructor_keeps_order_as_given():
    m = Model(["a", "b"], {("a", "b"), ("b", "b")})
    report = m.validate()
    assert not report.ok
    assert [v.axiom for v in report.violations] == ["reflexivity"]
    assert report.violations[0].witness == ("a",)


def test_transitivity_violation_names_the_gap():
    m = Model(["a", "b", "c"],
              {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")})
    report = m.validate()
    assert [v.axiom for v in report.violations] == ["transitivity"]
    assert report.violations[0].witness == ("a", "b", "c")


def test_valuation_must_be_upward_closed():
    m = Model.make(["a", "b"], [("a", "b")], valuation={"p": {"a"}})
    report = m.validate()
    assert [v.axiom for v in report.violations] == ["valuation-upset"]
    assert report.violations[0].witness == ("p", "a", "b")


def test_box_coherence_violation():
    m = Model.make(["a", "b", "c"], [("a", "b")], boxes=[{("b", "c")}])
    report = m.validate()
    assert [v.axiom for v in report.violations] == ["box-1-coherence"]
    assert report.violations[0].witness == ("a", "b", "c")
    assert str(report.violations[0]) == "box-1-coherence at (a, b, c)"


def test_shape_checks():
    with pytest.raises(ModelFormatError):
        Model(["a"], set(), valuation={"P": {"a"}})
    with pytest.raises(ModelFormatError):
        Model(["a"], set(), valuation={"p": {"zz"}})
    with pytest.raises(ModelFormatError):
        Model(["a"], {("a", "zz")})
    with pytest.raises(ModelFormatError):
        Model(["a"], set(), flavor="weird")
    with pytest.raises(ModelFormatError):
        Model(["a"], set(), boxes=[set(), set()], flavor="fs")
    with pytest.raises(ModelFormatError):
        Model([], set())


def test_wedge_is_the_canonical_non_strict_example():
    w = build_example("wedge")
    assert sorted(w.leq) == [("x", "x"), ("y", "y"), ("y", "z"), ("z", "z")]
    assert [sorted(r) for r in w.boxes] == [[("x", "y")]]
    assert {a: sorted(s) for a, s in w.valuation.items()} == \
        {"p": ["y", "z"], "q": ["z"]}
    report = w.validate()
    assert report.ok and not report.strictly_condensed


def test_wedge_strict_and_strictify():
    w = build_example("wedge")
    ws = build_example("wedge_strict")
    assert ws.validate().ok and ws.validate().strictly_condensed
    assert strictify(w) == ws
    assert strictify(ws) == ws


def test_strictify_gpt_and_tense():
    import random
    from kripkit.sampling import random_model
    for flavor in ("gpt", "tense"):
        m = random_model(random.Random(5), flavor, n_states=5)
        ms = strictify(m)
        assert ms.validate().ok
        assert ms.validate().strictly_condensed
    with pytest.raises(FlavorError):
        strictify(random_model(random.Random(5), "h", n_states=4))


def test_dualize_wedge():
    w = build_example("wedge")
    d = dualize(w)
    assert sorted(d.leq) == [("x", "x"), ("y", "y"), ("z", "y"), ("z", "z")]
    assert d.boxes == () and [sorted(r) for r in d.diamonds] == [[("x", "y")]]
    assert {a: sorted(s) for a, s in d.valuation.items()} == \
        {"p": ["x"], "q": ["x", "y"]}
    assert d.validate().ok
    assert dualize(d) == w


def test_dualize_rejects_one_sided_flavors():
    m = Model(["a"], {("a", "a")}, boxes=[set()], flavor="fs")
    with pytest.raises(FlavorError):
        dualize(m)
    m = Model(["a"], {("a", "a")}, boxes=[set()], diamonds=[set()],
              flavor="gpt")
    with pytest.raises(FlavorError):
        dualize(m)


def test_spines_example():
    m = build_example("spines", (2,))
    assert m.states == ("r", "s1_1", "s2_1", "s2_2")
    assert m.leq == frozenset((s, s) for s in m.states)
    assert sorted(m.boxes[0]) == \
        [("r", "s1_1"), ("r", "s2_1"), ("s2_1", "s2_2")]
    assert m.validate().ok


def test_porcupine_examples():
    m = build_example("porcupine", (2,))
    t = build_example("porcupine_trimmed", (2,))
    assert m.states == ("b1k0", "b2k0", "b2k1", "b3k0", "b3k1", "b3k2", "x")
    assert t.states == ("b1k0", "b2k0", "b2k1", "x")
    assert {a: sorted(s) for a, s in t.valuation.items()} == {
        "p0": ["b1k0", "b2k0", "b2k1", "x"],
        "p1": ["b2k1", "x"],
        "p2": ["x"],
        "q": ["x"],
    }
    for example in (m, t):
        report = example.validate()
        assert report.ok and report.strictly_condensed
        assert ("b1k0", "x") in example.leq


def test_example_sizes_are_counted_before_building():
    for name in ("spines", "porcupine", "porcupine_trimmed", "omega_chain"):
        for k in (1, 2, 3, 7, 20):
            m = build_example(name, (k,))
            assert _example_size(name, k) == (len(m.states), len(m.leq))


def test_examples_stop_at_the_size_ceiling():
    # the largest of each family builds; one step further is refused
    for name, largest in (("spines", 140), ("porcupine", 36),
                          ("porcupine_trimmed", 37), ("omega_chain", 138)):
        m = build_example(name, (largest,))
        assert max(len(m.states), len(m.leq)) <= MAX_EXAMPLE_SIZE
        with pytest.raises(ModelFormatError, match="examples stop at"):
            build_example(name, (largest + 1,))
    with pytest.raises(ModelFormatError, match="spines"):
        build_example("spines", (10**8,))


def test_omega_chain_example():
    m = build_example("omega_chain", (2,))
    assert m.states == ("0", "1", "2", "inf")
    assert ("0", "inf") in m.leq and ("inf", "0") not in m.leq
    assert sorted(m.valuation["p2"]) == ["2", "inf"]
    assert m.validate().ok


def test_unknown_example_rejected():
    with pytest.raises(ModelFormatError):
        build_example("nope")


def test_partition_naming_and_checks():
    part = Partition.from_blocks([["b", "a"], ["c"]])
    assert part.block_of == {"a": "a", "b": "a", "c": "c"}
    assert part.blocks() == {"a": frozenset({"a", "b"}),
                             "c": frozenset({"c"})}
    assert part.covers(["a", "b", "c"]) and not part.covers(["a", "d"])
    with pytest.raises(ModelFormatError):
        Partition.from_blocks([["a", "b"], ["b"]])
    with pytest.raises(ModelFormatError):
        Partition.from_blocks([[]])


def test_quotient_by_discrete_partition_is_identity():
    m = Model.make(["a", "b", "c"], [("a", "b")],
                   boxes=[{("a", "c"), ("b", "c")}], valuation={"p": {"b"}})
    q, mapping = quotient(m, Partition.from_blocks([["a"], ["b"], ["c"]]))
    assert q == m
    assert mapping == {"a": "a", "b": "b", "c": "c"}


def test_quotient_merges_blocks():
    m = Model.make(["a", "b", "c"], [("a", "b")],
                   boxes=[{("a", "c"), ("b", "c")}], valuation={"p": {"b"}})
    q, mapping = quotient(m, Partition.from_blocks([["a", "b"], ["c"]]))
    assert q.states == ("a", "c")
    assert sorted(q.boxes[0]) == [("a", "c")]
    assert mapping == {"a": "a", "b": "a", "c": "c"}
    # The merged block inherits p existentially.
    assert q.valuation == {"p": frozenset({"a"})}


def test_quotient_partition_must_cover():
    from kripkit.errors import PreconditionError
    m = Model.make(["a", "b"], [])
    with pytest.raises(PreconditionError):
        quotient(m, Partition.from_blocks([["a"]]))


def test_quotient_rejects_block_names_that_are_not_strings():
    w = build_example("wedge")
    for block_of in ({"x": 1, "y": 1, "z": 2}, {"x": "", "y": "", "z": "z"}):
        with pytest.raises(ModelFormatError,
                           match="^state names must be nonempty strings$"):
            quotient(w, Partition(block_of))


def test_enrich_valuation():
    w = build_example("wedge")
    w2 = enrich_valuation(w, [("s", kk.parse("p -> q"))])
    assert sorted(w2.valuation["s"]) == ["x", "z"]
    assert w2.valuation["p"] == w.valuation["p"]
    with pytest.raises(ModelFormatError):
        enrich_valuation(w, [("Bad", kk.parse("p"))])


def test_json_round_trip():
    for name, params in (("wedge", ()), ("spines", (3,)),
                         ("porcupine", (2,)), ("omega_chain", (2,))):
        m = build_example(name, params)
        again = model_from_dict(json.loads(model_to_json(m)))
        assert again == m


def test_json_closes_the_generating_order():
    m = model_from_dict({
        "states": ["a", "b", "c"],
        "leq_gen": [["a", "b"], ["b", "c"]],
        "valuation": {},
    })
    assert ("a", "c") in m.leq and ("a", "a") in m.leq


def test_load_model(tmp_path):
    path = tmp_path / "m.json"
    m = build_example("wedge")
    path.write_text(model_to_json(m))
    assert load_model(str(path)) == m


def test_json_format_errors():
    good = model_to_dict(build_example("wedge"))
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ModelFormatError):
        model_from_dict(bad)
    with pytest.raises(ModelFormatError):
        model_from_dict({k: v for k, v in good.items() if k != "states"})
    bad = dict(good)
    bad["leq_gen"] = [["x", "y", "z"]]
    with pytest.raises(ModelFormatError):
        model_from_dict(bad)
    bad = dict(good)
    bad["flavor"] = "strange"
    with pytest.raises(ModelFormatError):
        model_from_dict(bad)
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3])


@pytest.mark.parametrize("key,value,message", [
    ("leq_gen", "x<y", "leq_gen must be a list of pairs"),
    ("leq_gen", [["x", "y"], ("y", "z")],
     "leq_gen must contain [from, to] pairs"),
    ("leq_gen", ["xy"], "leq_gen must contain [from, to] pairs"),
    ("leq_gen", [["x"]], "leq_gen must contain [from, to] pairs"),
    ("leq_gen", [["x", "y", "z"]], "leq_gen must contain [from, to] pairs"),
    ("leq_gen", [[1, "y"]], "leq_gen must contain [from, to] pairs"),
    ("leq_gen", [["x", None]], "leq_gen must contain [from, to] pairs"),
    ("boxes", [{"x": "y"}], "boxes[0] must be a list of pairs"),
    ("boxes", [[], [["x", ["y"]]]], "boxes[1] must contain [from, to] pairs"),
    ("diamonds", [[["x", "y"]], 7], "diamonds[1] must be a list of pairs"),
    ("diamonds", [[[True, False]]], "diamonds[0] must contain [from, to] pairs"),
])
def test_pair_list_shape_errors(key, value, message):
    data = model_to_dict(build_example("wedge"))
    data[key] = value
    with pytest.raises(ModelFormatError) as caught:
        model_from_dict(data)
    assert str(caught.value) == message


def test_model_equality_and_ordering_of_components():
    a = Model.make(["s", "t"], [("s", "t")], valuation={"p": {"t"}})
    b = Model.make(["t", "s"], [("s", "t")], valuation={"p": {"t"}})
    assert a == b
    assert a != Model.make(["s", "t"], [("s", "t")])


IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@given(st.lists(IDENTIFIERS, min_size=1, max_size=6, unique=True),
       st.data())
def test_make_always_validates_on_preorders(states, data):
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(states)),
        max_size=8))
    m = Model.make(states, pairs)
    report = m.validate()
    assert all(v.axiom not in ("reflexivity", "transitivity")
               for v in report.violations)
    up = data.draw(st.sampled_from(states))
    m2 = enrich_valuation(m, [("marker", kk.Top())])
    assert up in m2.valuation["marker"]
