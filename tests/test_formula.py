"""Parser, printer and fragment bookkeeping."""

import dataclasses
import inspect
import sys

import pytest
from hypothesis import given, strategies as st

from kripkit import (Atom, Top, Bot, And, Or, Imp, Sub, Box, Dia, TDia, TBox,
                     Ck, Formula, parse, to_string, atoms_of, connective_count,
                     nesting_depth, Fragment, fragment_of, translate)
from kripkit.errors import ParseError, FragmentError

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_atoms_and_constants():
    assert parse("p") == p
    assert parse("T") == Top()
    assert parse("F") == Bot()
    assert parse("long_name2") == Atom("long_name2")


def test_parse_precedence():
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("p & q -> r") == Imp(And(p, q), r)
    assert parse("p -> q | r") == Imp(p, Or(q, r))


def test_arrow_associativity():
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse("p -< q -< r") == Sub(Sub(p, q), r)


def test_mixed_arrows_need_parens():
    with pytest.raises(ParseError):
        parse("p -> q -< r")
    with pytest.raises(ParseError):
        parse("p -< q -> r")
    assert parse("(p -> q) -< r") == Sub(Imp(p, q), r)
    assert parse("p -> (q -< r)") == Imp(p, Sub(q, r))


def test_unary_operators():
    assert parse("~p") == Imp(p, Bot())
    assert parse("-.p") == Sub(Top(), p)
    assert parse("[]1 p") == Box(1, p)
    assert parse("<>2 p") == Dia(2, p)
    assert parse("<|1 p") == TDia(1, p)
    assert parse("|>1 p") == TBox(1, p)
    assert parse("C p") == Ck(p)
    assert parse("[]1 []1 p") == Box(1, Box(1, p))
    assert parse("[]2 p & q") == And(Box(2, p), q)


def test_bad_input_reports_position():
    for text in ("", "p &", "p & & q", "[]0 p", "[] p", "(p", "p )", "p $ q"):
        with pytest.raises(ParseError):
            parse(text)
    try:
        parse("p & & q")
    except ParseError as e:
        assert e.position == 4


def test_over_deep_formulas_are_parse_errors():
    # each of these used to end in a RecursionError
    for text in ("[]1 " * 3000 + "p", "(" * 3000 + "p" + ")" * 3000,
                 "p & " * 3000 + "p", "p -> " * 3000 + "p", "~" * 3000 + "p"):
        with pytest.raises(ParseError, match="more than 300"):
            parse(text)
    with pytest.raises(ParseError) as info:
        parse("(" * 301 + "p" + ")" * 301)
    assert info.value.position == 300


def test_formulas_at_the_depth_limit_parse_and_print():
    chain = "q"
    for _ in range(150):
        chain = f"[]1 ({chain}) & q"
    for text in (chain, "[]1 " * 300 + "p", "(" * 300 + "p" + ")" * 300,
                 "p -> " * 300 + "p"):
        f = parse(text)
        assert parse(to_string(f)) == f
        assert translate(translate(f)) == f
    with pytest.raises(ParseError):
        parse("[]1 " * 301 + "p")


def test_parse_does_not_recurse():
    # formulas at both caps parse, and the texts one past them fail,
    # with the recursion limit barely above the caller's stack
    chain = "q"
    for _ in range(150):
        chain = f"[]1 ({chain}) & q"
    texts = ("(" * 300 + "p" + ")" * 300, chain, "[]1 " * 300 + "p")
    want = [parse(text) for text in texts]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        for text, f in zip(texts, want):
            assert parse(text) is f
        for text in (f"[]1 ({chain}) & q", "[]1 " * 301 + "p"):
            with pytest.raises(ParseError, match="more than 300 levels"):
                parse(text)
        with pytest.raises(ParseError, match="parentheses nest"):
            parse("(" * 301 + "p" + ")" * 301)
    finally:
        sys.setrecursionlimit(limit)


def test_to_string_frozen():
    assert to_string(Imp(And(p, q), r)) == "p & q -> r"
    assert to_string(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert to_string(Imp(p, Imp(q, r))) == "p -> q -> r"
    assert to_string(Sub(Sub(p, q), r)) == "p -< q -< r"
    assert to_string(Sub(p, Sub(q, r))) == "p -< (q -< r)"
    assert to_string(And(Or(p, q), r)) == "(p | q) & r"
    assert to_string(Box(1, Or(p, q))) == "[]1 (p | q)"
    assert to_string(Box(1, Dia(2, p))) == "[]1 <>2 p"
    assert to_string(Sub(Imp(p, q), r)) == "(p -> q) -< r"
    assert to_string(Ck(And(p, q))) == "C (p & q)"
    assert to_string(TDia(1, TBox(1, p))) == "<|1 |>1 p"


FORMULAS = st.recursive(
    st.sampled_from([p, q, r, Atom("s1"), Top(), Bot()]),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Imp, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Box, st.integers(1, 3), kids),
        st.builds(Dia, st.integers(1, 3), kids),
        st.builds(TDia, st.integers(1, 2), kids),
        st.builds(TBox, st.integers(1, 2), kids),
        st.builds(Ck, kids)),
    max_leaves=25)


@given(FORMULAS)
def test_print_parse_round_trip(f):
    assert parse(to_string(f)) == f


@given(FORMULAS)
def test_translate_is_an_involution(f):
    try:
        g = translate(f)
    except FragmentError:
        return
    assert translate(g) == f


def test_translate_frozen():
    assert translate(Imp(p, q)) == Sub(q, p)
    assert translate(Sub(p, q)) == Imp(q, p)
    assert translate(And(p, Top())) == Or(p, Bot())
    assert translate(Box(2, p)) == Dia(2, p)
    assert translate(TDia(1, p)) == TBox(1, p)
    assert translate(Imp(p, Sub(q, r))) == Sub(Imp(r, q), p)
    with pytest.raises(FragmentError):
        translate(Ck(p))


def test_atoms_and_counts():
    f = parse("p & (q -> p) | []1 r")
    assert atoms_of(f) == frozenset({"p", "q", "r"})
    assert connective_count(p) == 0
    assert connective_count(parse("~p")) == 1
    assert connective_count(f) == 4


def test_nesting_depth_fuses_modal_over_arrow():
    assert nesting_depth(p) == 0
    assert nesting_depth(parse("p & q | r")) == 0
    assert nesting_depth(parse("p -> q")) == 1
    assert nesting_depth(parse("[]1 p")) == 1
    assert nesting_depth(parse("[]1 (p -> q)")) == 1
    assert nesting_depth(parse("<>1 (p -< q)")) == 1
    assert nesting_depth(parse("[]1 []1 p")) == 2
    assert nesting_depth(parse("(p -> q) -> r")) == 2
    assert nesting_depth(parse("[]1 (p -> []1 (q -> r))")) == 2
    assert nesting_depth(parse("C (p -> q)")) == 1


@given(FORMULAS)
def test_depth_bounded_by_connective_count(f):
    assert nesting_depth(f) <= connective_count(f)


def test_fragment_of():
    assert fragment_of(parse("p & q")) == Fragment("int", 0, 0)
    assert fragment_of(parse("p -> q")) == Fragment("int", 0, 0)
    assert fragment_of(parse("p -< q")) == Fragment("intdual", 0, 0)
    assert fragment_of(parse("(p -> q) & (p -< q)")) == Fragment("biint", 0, 0)
    assert fragment_of(parse("[]2 p")) == Fragment("int", 2, 0)
    assert fragment_of(parse("<>1 p")) == Fragment("int", 0, 1)
    assert fragment_of(parse("<|1 p")) == Fragment("biint", 1, 0, True)
    assert fragment_of(parse("|>1 p")) == Fragment("biint", 0, 1, True)
    assert fragment_of(parse("C p")) == Fragment("int", 1, 0)


@given(FORMULAS)
def test_fragment_of_is_minimal_and_admitting(f):
    try:
        frag = fragment_of(f)
    except FragmentError:
        # Common knowledge mixed with subtraction, diamonds or the
        # backward operators fits no fragment at all.
        return
    assert frag.admits(f)


def test_fragment_of_rejects_homeless_mixtures():
    with pytest.raises(FragmentError):
        fragment_of(Ck(Sub(p, q)))
    with pytest.raises(FragmentError):
        fragment_of(And(Ck(p), Dia(1, q)))
    with pytest.raises(FragmentError):
        fragment_of(And(Ck(p), TDia(1, q)))


def test_admits_rejects_out_of_fragment():
    assert not Fragment("int", 1, 0).admits(parse("p -< q"))
    assert not Fragment("intdual", 0, 1).admits(parse("p -> q"))
    assert not Fragment("int", 1, 0).admits(parse("[]2 p"))
    assert not Fragment("int", 1, 0).admits(parse("<>1 p"))
    assert not Fragment("biint", 1, 1).admits(parse("<|1 p"))
    assert Fragment("biint", 1, 1, True).admits(parse("<|1 p & |>1 q"))
    assert Fragment("int", 1, 0).admits(parse("C (p -> q)"))
    assert not Fragment("biint", 1, 0).admits(parse("C p"))
    assert not Fragment("int", 1, 1).admits(parse("C p"))
    # C reads the box relations, so a fragment without a box lacks it
    assert not Fragment("int").admits(parse("C p"))


SMALL_FRAGMENTS = [Fragment(base, n, m, tense)
                   for base in ("int", "intdual", "biint")
                   for n in range(3) for m in range(3)
                   for tense in (False, True) if base == "biint" or not tense]


@given(FORMULAS)
def test_admitting_fragments_contain_the_least_one(f):
    for frag in SMALL_FRAGMENTS:
        if frag.admits(f):
            least = fragment_of(f)
            assert frag.n_boxes >= least.n_boxes
            assert frag.m_diamonds >= least.m_diamonds
            assert frag.tense >= least.tense


def test_fragment_validation():
    with pytest.raises(FragmentError):
        Fragment("classical", 1, 0)
    with pytest.raises(FragmentError):
        Fragment("int", -1, 0)
    with pytest.raises(FragmentError):
        Fragment("int", 1, 0, tense=True)


def test_index_must_be_positive():
    with pytest.raises(ValueError):
        Box(0, p)
    with pytest.raises(ValueError):
        Dia(-1, p)


def test_deep_chains_hash_without_recursion():
    # hashing once recursed over the tree: 400 levels hashed and 3,000
    # raised RecursionError
    f = q
    for _ in range(3000):
        f = Box(1, f)
    assert hash(f) == hash(f)
    table = {f: "deep"}
    assert table[f] == "deep"
    assert f.body in {f.body}


def _chain(depth, leaf):
    f = leaf
    for i in range(depth):
        f = Box(1, f) if i % 3 else Imp(p, f) if i % 2 else And(f, q)
    return f


class _Clash:
    """Leaves whose hashes all agree but which equal only themselves,
    so equality cannot answer from the hashes alone."""

    def __hash__(self):
        return 0


def test_deep_chains_compare_and_walk_without_recursion():
    # at 340 levels == raised RecursionError, and atoms_of,
    # nesting_depth and translate at 3,000
    f, twin, other = _chain(3000, r), _chain(3000, r), _chain(3000, Top())
    assert f is twin and hash(f) == hash(twin)
    assert f == twin and not f != twin
    assert f != other and not f == other
    x, y = _Clash(), _Clash()
    g, g_twin, g_other = _chain(3000, x), _chain(3000, x), _chain(3000, y)
    assert hash(g) == hash(g_twin) == hash(g_other)
    assert g == g_twin and g != g_other and not g == g_other
    assert atoms_of(f) == {"p", "q", "r"} and atoms_of(other) == {"p", "q"}
    # every Imp opens a layer, and a Box does unless it sits on an Imp
    assert nesting_depth(f) == 2000
    assert translate(translate(f)) == f


def test_deep_chains_print_without_recursion():
    # at 1,000 levels str raised RecursionError
    f = p
    for _ in range(3000):
        f = Box(1, f)
    assert str(f) == "[]1 " * 3000 + "p"
    # printed at once, a chain reads as a twin printed in stages of 200
    # levels, each stage reusing the text stored on the one below
    g, twin = _chain(3000, r), _chain(3000, r)
    stages = []
    while twin is not r:
        stages.append(twin)
        twin = (twin.body if isinstance(twin, Box) else
                twin.right if isinstance(twin, Imp) else twin.left)
    for stage in stages[::-200]:
        str(stage)
    text = str(g)
    assert text == str(stages[0])
    assert text.count("(") == text.count(")") == 1000


NODES = [p, Top(), Bot(), And(p, q), Or(p, q), Imp(p, q), Sub(p, q),
         Box(1, p), Dia(2, p), TDia(1, p), TBox(3, p), Ck(p)]


@pytest.mark.parametrize("node", NODES, ids=lambda f: type(f).__name__)
def test_hash_and_equality_are_defined_once_on_formula(node):
    cls = type(node)
    assert cls.__hash__ is Formula.__hash__ and cls.__eq__ is Formula.__eq__
    # set and dict orders follow these values
    values = [getattr(node, fl.name) for fl in dataclasses.fields(node)]
    assert hash(node) == hash((cls, *values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1


def test_equal_trees_built_apart_hash_equal():
    text = "[]1 (p & q -> <|2 r) | C ~q -< -.T"
    assert parse(text) is parse(text)
    assert hash(parse(text)) == hash(parse(text))
    assert len({parse(text), parse(text)}) == 1
    assert And(p, q) != Or(p, q) and Atom("p") != "p"
    assert Box(1, p) != Dia(1, p) and Box(1, p) != Box(2, p)
    assert Top() != Bot() and hash(Top()) == hash(Top())


def test_nodes_over_non_formula_children_construct():
    odd = object()
    assert And(odd, 3).left is odd
    assert hash(Box(1, 3)) == hash(Box(1, 3))
    assert Ck(odd) == Ck(odd)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_pickled_nodes_rehash_in_the_receiving_process(seed):
    import os
    import pickle
    import subprocess
    import sys

    import kripkit
    from kripkit import build_example, truth_set

    text = "[]1 (p -> q) & ~q | []1 T"
    code = ("import pickle, sys; from kripkit import parse; "
            f"sys.stdout.buffer.write(pickle.dumps(parse({text!r})))")
    package_root = os.path.dirname(os.path.dirname(kripkit.__file__))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
    sent = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    f = pickle.loads(sent)
    fresh = parse(text)
    assert f == fresh and hash(f) == hash(fresh)
    m = build_example("wedge")
    truth_set(fresh, m)
    assert (f, False) in m._eval_cache


def test_stored_text_and_count_stay_out_of_sight():
    import dataclasses
    import pickle

    import kripkit

    text = "[]1 (p & q -> <|2 r) | C q -< T"
    f, twin = parse(text), parse(text)
    names = dir(kripkit)
    before = (repr(f), hash(f), [fl.name for fl in dataclasses.fields(f)])
    assert str(f) == text and connective_count(f) == 7
    assert (repr(f), hash(f), [fl.name for fl in dataclasses.fields(f)]) \
        == before
    assert f == twin and twin == f and hash(twin) == hash(f)
    assert dir(kripkit) == names
    # the text is stored on the node printed and nowhere below it, and
    # each node holds one attribute beyond those it was built with
    assert vars(f)["_memo"] == (7, text)
    assert vars(f.left)["_memo"] == 6
    assert set(vars(f)) == set(vars(f.left)) == {"left", "right", "_h",
                                                 "_memo"}
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)
    assert copy is f
    assert str(copy) == text


def test_equal_nodes_are_one_object():
    assert Atom("p") is Atom("p") is p
    assert Box(index=1, body=p) is Box(1, p)
    assert Top() is Top() and Bot() is Bot() and Top() is not Bot()
    assert And(p, q) is not Or(p, q) and Box(1, p) is not Dia(1, p)
    assert parse("[]1 (p -> q) & C r") is And(Box(1, Imp(p, q)), Ck(r))


def test_copies_are_the_live_node():
    import copy
    import pickle

    f = parse("[]1 (p & q -> <|2 r) | C ~q -< -.T")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert dataclasses.replace(f) is f
    assert dataclasses.replace(Box(1, p), body=q) is Box(1, q)
    assert dataclasses.replace(Box(1, p), index=2) is Box(2, p)


def test_deep_chains_built_twice_are_one_object():
    assert _chain(3000, r) is _chain(3000, r)
    assert _chain(3000, r) is not _chain(3000, Top())


def test_dead_nodes_leave_the_table():
    from kripkit import formula

    start = len(formula._NODES)
    atoms = [Atom(f"x{i}") for i in range(100_000)]
    assert len(formula._NODES) == start + 100_000
    del atoms
    assert len(formula._NODES) == start
    # a node rebuilt after its twin died is a fresh, equal-hashing node
    h = hash(Box(7, Atom("gone")))
    assert hash(Box(7, Atom("gone"))) == h


def test_invalid_indexes_raise_while_a_valid_twin_is_alive():
    twin = Box(1, p)
    for bad in (0, -1, 1.0, True, "1", None):
        for cls in (Box, Dia, TDia, TBox):
            with pytest.raises(ValueError, match="positive integer"):
                cls(bad, p)
    assert Box(1, p) is twin and Box(1, p).index == 1


def test_counts_of_deep_and_shared_formulas_need_no_recursion():
    # a chain this deep used to end in RecursionError
    f = p
    for _ in range(3000):
        f = Box(1, f)
    assert connective_count(f) == 3000
    g = q
    for i in range(3000):
        g = And(g, r) if i % 2 else Imp(p, g)
    assert connective_count(g) == 3000
    # 60 levels of sharing: a walk that did not stop at stored counts
    # would visit 2**60 nodes
    h = p
    for _ in range(60):
        h = And(h, h)
    assert connective_count(h) == 2**60 - 1
    with pytest.raises(TypeError, match="not a formula node"):
        connective_count(Box(1, 3))
