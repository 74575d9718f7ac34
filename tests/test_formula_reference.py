"""Differential test of the formula language's bookkeeping.

The tokenizer, parser, translate, fragment_of, Fragment.admits and
random_formula below are kept verbatim from the version that spelled
each fact about the language out in its own branch chain, before one
token table, one dual table and one usage walk replaced them; atoms_of
and nesting_depth are kept from before they walked with a stack.  The
current code must give the same trees, the same results and the same
exceptions (type and text, offsets included) on every input, and
random_formula must draw the same formulas and leave its Random in the
same state.  The printer below is the one from before to_string stored
its text on the node; str must agree with it whatever was printed
first.

Two differences are intended and checked as such: admits rejects C
under a fragment with no box (C reads the box relations), and a
relation index too long for int() is a ParseError, not a ValueError.
A third is left unchecked: fragment_of and admits no longer recurse,
so they answer on formulas built in code too deep for the reference's
recursion.
"""

from __future__ import annotations

import pickle
import random
import re
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from kripkit import formula as kf
from kripkit import build_example, sampling, synthesize
from kripkit.errors import FragmentError, ParseError
from kripkit.formula import (And, Atom, Bot, Box, Ck, Dia, Formula, Fragment,
                             Imp, Or, Sub, TBox, TDia, Top, to_string)

# ---------------------------------------------------------------------------
# Tokenizer

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")

# (kind, value, position) triples
_Token = tuple[str, object, int]


def _read_index(text: str, start: int, op_end: int) -> tuple[int, int]:
    m = _INT_RE.match(text, op_end)
    if not m:
        raise ParseError("expected a relation index after modal operator", op_end)
    index = int(m.group())
    if index < 1:
        raise ParseError("relation index must be at least 1", op_end)
    return index, m.end()


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            tokens.append(("LPAREN", None, i))
            i += 1
        elif c == ")":
            tokens.append(("RPAREN", None, i))
            i += 1
        elif c == "&":
            tokens.append(("AND", None, i))
            i += 1
        elif c == "|":
            if text.startswith("|>", i):
                index, i2 = _read_index(text, i, i + 2)
                tokens.append(("TBOX", index, i))
                i = i2
            else:
                tokens.append(("OR", None, i))
                i += 1
        elif c == "-":
            nxt = text[i + 1 : i + 2]
            if nxt == ">":
                tokens.append(("IMP", None, i))
                i += 2
            elif nxt == "<":
                tokens.append(("SUB", None, i))
                i += 2
            elif nxt == ".":
                tokens.append(("CONEG", None, i))
                i += 2
            else:
                raise ParseError("lone '-': expected ->, -< or -.", i)
        elif c == "~":
            tokens.append(("NEG", None, i))
            i += 1
        elif c == "[":
            if not text.startswith("[]", i):
                raise ParseError("'[' must start a box operator []", i)
            index, i2 = _read_index(text, i, i + 2)
            tokens.append(("BOX", index, i))
            i = i2
        elif c == "<":
            if text.startswith("<>", i):
                index, i2 = _read_index(text, i, i + 2)
                tokens.append(("DIA", index, i))
                i = i2
            elif text.startswith("<|", i):
                index, i2 = _read_index(text, i, i + 2)
                tokens.append(("TDIA", index, i))
                i = i2
            else:
                raise ParseError("'<' must start <> or <|", i)
        elif c == "T":
            tokens.append(("TOP", None, i))
            i += 1
        elif c == "F":
            tokens.append(("BOT", None, i))
            i += 1
        elif c == "C":
            tokens.append(("CK", None, i))
            i += 1
        else:
            m = _ATOM_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {c!r}", i)
            tokens.append(("ATOM", m.group(), i))
            i = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser: recursive descent that recurses only into parentheses.

# The deepest formula parse accepts: at most this many edges from the
# root to a leaf, and at most this many nested parentheses.  Parsing
# recurses twice per parenthesis; printing, translating, evaluating
# and comparing recurse per level, and on Python 3.11 comparing two
# equal trees built apart spends three levels of the default recursion
# limit of 1000 per node.  300 leaves room for a caller's stack some 60
# frames deep, and 150 levels of "[]1 (...) & q" are 300 deep.
MAX_DEPTH = 300

# Prefix operators: token kind -> node built around the operand.
_PREFIX = {
    "BOX": Box, "DIA": Dia, "TDIA": TDia, "TBOX": TBox,
    "NEG": lambda _, f: Imp(f, Bot()),
    "CONEG": lambda _, f: Sub(Top(), f),
    "CK": lambda _, f: Ck(f),
}


class _Parser:
    def __init__(self, tokens: list[_Token], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.parens = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def formula(self) -> Formula:
        """An arrow chain of disjunctions of conjunctions of operands."""
        items = []
        kinds: list[tuple[str, int]] = []
        while True:
            disjunction, acc = None, self.operand()
            while (tok := self.peek()) is not None and tok[0] in ("AND", "OR"):
                self.pos += 1
                if tok[0] == "AND":
                    acc = And(acc, self.operand())
                else:
                    disjunction = (acc if disjunction is None
                                   else Or(disjunction, acc))
                    acc = self.operand()
            items.append(acc if disjunction is None else Or(disjunction, acc))
            if tok is None or tok[0] not in ("IMP", "SUB"):
                break
            self.pos += 1
            kinds.append((tok[0], tok[2]))
        if not kinds:
            return items[0]
        for kind, at in kinds:
            if kind != kinds[0][0]:
                raise ParseError("mixing -> and -< needs parentheses", at)
        if kinds[0][0] == "IMP":
            acc = items[-1]
            for item in reversed(items[:-1]):
                acc = Imp(item, acc)
            return acc
        acc = items[0]
        for item in items[1:]:
            acc = Sub(acc, item)
        return acc

    def operand(self) -> Formula:
        """Prefix operators applied to an atom, a constant or a
        parenthesised formula."""
        prefixes = []
        while (tok := self.peek()) is not None and tok[0] in _PREFIX:
            self.pos += 1
            prefixes.append(tok)
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        kind, value, at = tok
        self.pos += 1
        if kind == "ATOM":
            f: Formula = Atom(value)
        elif kind == "TOP":
            f = Top()
        elif kind == "BOT":
            f = Bot()
        elif kind == "LPAREN":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise ParseError(f"parentheses nest more than {MAX_DEPTH} "
                                 "deep", at)
            f = self.formula()
            self.parens -= 1
            closing = self.peek()
            if closing is None or closing[0] != "RPAREN":
                raise ParseError("expected ')'",
                                 self.length if closing is None else closing[2])
            self.pos += 1
        else:
            raise ParseError("expected a formula here", at)
        for kind, value, _ in reversed(prefixes):
            f = _PREFIX[kind](value, f)
        return f


def _height(f: Formula) -> int:
    """Edges on the longest path from f down to a leaf, found level by
    level without recursion.  Fields are read by name: vars() would
    give every node a __dict__ of its own, which slows each later
    attribute read and hash."""
    level, height = [f], -1
    while level:
        height += 1
        level = [child for g in level for child in (
            (g.left, g.right) if isinstance(g, (And, Or, Imp, Sub)) else
            () if isinstance(g, (Atom, Top, Bot)) else (g.body,))]
    return height


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    :raises ParseError: on malformed input, with the offending offset,
        and on formulas nested more than MAX_DEPTH deep.
    """
    parser = _Parser(_tokenize(text), len(text))
    result = parser.formula()
    if (tok := parser.peek()) is not None:
        raise ParseError("unexpected trailing input", tok[2])
    # a formula is never deeper than its count of operator tokens
    if len(parser.tokens) > MAX_DEPTH and _height(result) > MAX_DEPTH:
        raise ParseError(f"formula nests more than {MAX_DEPTH} levels deep",
                         0)
    return result


def fragment_of(f: Formula) -> Fragment:
    """Smallest fragment containing f.

    Arrow-free formulas report base 'int': nothing in them separates
    the two bases, so the positive choice is the canonical one.
    """
    has_imp = has_sub = tense = has_ck = False
    n_boxes = m_diamonds = 0

    def walk(g: Formula) -> None:
        nonlocal has_imp, has_sub, tense, n_boxes, m_diamonds, has_ck
        if isinstance(g, (Atom, Top, Bot)):
            return
        if isinstance(g, (And, Or)):
            walk(g.left), walk(g.right)
        elif isinstance(g, Imp):
            has_imp = True
            walk(g.left), walk(g.right)
        elif isinstance(g, Sub):
            has_sub = True
            walk(g.left), walk(g.right)
        elif isinstance(g, Box):
            n_boxes = max(n_boxes, g.index)
            walk(g.body)
        elif isinstance(g, Dia):
            m_diamonds = max(m_diamonds, g.index)
            walk(g.body)
        elif isinstance(g, TDia):
            tense = True
            n_boxes = max(n_boxes, g.index)
            walk(g.body)
        elif isinstance(g, TBox):
            tense = True
            m_diamonds = max(m_diamonds, g.index)
            walk(g.body)
        elif isinstance(g, Ck):
            has_imp = True
            has_ck = True
            n_boxes = max(n_boxes, 1)
            walk(g.body)
        else:
            raise TypeError(f"not a formula node: {g!r}")

    walk(f)
    if has_ck and (has_sub or tense or m_diamonds > 0):
        raise FragmentError(
            "common knowledge does not combine with subtraction, diamonds "
            "or backward operators; no fragment admits this formula")
    if tense or (has_imp and has_sub):
        base = "biint"
    elif has_sub:
        base = "intdual"
    else:
        base = "int"
    return Fragment(base, n_boxes, m_diamonds, tense)


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {And: 3, Or: 2, Imp: 1, Sub: 1}
_MODAL_SYMBOL = {Box: "[]", Dia: "<>", TDia: "<|", TBox: "|>"}


def render(f: Formula) -> str:
    return _render(f, 0, None)


def _render(f: Formula, floor: int, arrow_ctx: type | None) -> str:
    prec = _PRECEDENCE.get(type(f), 4)
    if isinstance(f, Atom):
        out = f.name
    elif isinstance(f, Top):
        out = "T"
    elif isinstance(f, Bot):
        out = "F"
    elif isinstance(f, And):
        out = f"{_render(f.left, 3, None)} & {_render(f.right, 4, None)}"
    elif isinstance(f, Or):
        out = f"{_render(f.left, 2, None)} | {_render(f.right, 3, None)}"
    elif isinstance(f, Imp):
        out = f"{_render(f.left, 2, None)} -> {_render(f.right, 1, Imp)}"
    elif isinstance(f, Sub):
        out = f"{_render(f.left, 1, Sub)} -< {_render(f.right, 2, None)}"
    elif isinstance(f, (Box, Dia, TDia, TBox)):
        out = f"{_MODAL_SYMBOL[type(f)]}{f.index} {_render(f.body, 4, None)}"
    elif isinstance(f, Ck):
        out = f"C {_render(f.body, 4, None)}"
    else:
        raise TypeError(f"not a formula node: {f!r}")
    # Parenthesize when binding too loosely for the context, and when
    # sitting in an arrow chain of the other arrow (the parser refuses
    # mixed chains).
    if prec < floor or (prec == 1 and floor == 1 and type(f) is not arrow_ctx):
        return f"({out})"
    return out


# ---------------------------------------------------------------------------
# The dualizing translation


def translate(f: Formula) -> Formula:
    """Swap each connective with its order-dual, keeping atoms and
    relation indexes fixed.  Applying it twice gives back the input.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, Top):
        return Bot()
    if isinstance(f, Bot):
        return Top()
    if isinstance(f, And):
        return Or(translate(f.left), translate(f.right))
    if isinstance(f, Or):
        return And(translate(f.left), translate(f.right))
    if isinstance(f, Imp):
        return Sub(translate(f.right), translate(f.left))
    if isinstance(f, Sub):
        return Imp(translate(f.right), translate(f.left))
    if isinstance(f, Box):
        return Dia(f.index, translate(f.body))
    if isinstance(f, Dia):
        return Box(f.index, translate(f.body))
    if isinstance(f, TDia):
        return TBox(f.index, translate(f.body))
    if isinstance(f, TBox):
        return TDia(f.index, translate(f.body))
    if isinstance(f, Ck):
        raise FragmentError("common knowledge has no order-dual here")
    raise TypeError(f"not a formula node: {f!r}")


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, (And, Or, Imp, Sub)):
        return atoms_of(f.left) | atoms_of(f.right)
    return atoms_of(f.body)


def nesting_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    if isinstance(f, (And, Or)):
        return max(nesting_depth(f.left), nesting_depth(f.right))
    if isinstance(f, (Imp, Sub)):
        return 1 + max(nesting_depth(f.left), nesting_depth(f.right))
    body = f.body
    if isinstance(body, (Imp, Sub)):
        return 1 + max(nesting_depth(body.left), nesting_depth(body.right))
    return 1 + nesting_depth(body)


class ReferenceFragment(Fragment):
    def admits(self, f: Formula) -> bool:
        """Whether every connective of f lives inside this fragment.
        Common knowledge is only at home in implication-and-boxes
        fragments without backward operators."""
        if isinstance(f, (Atom, Top, Bot)):
            return True
        if isinstance(f, And) or isinstance(f, Or):
            return self.admits(f.left) and self.admits(f.right)
        if isinstance(f, Imp):
            return self.base in ("int", "biint") \
                and self.admits(f.left) and self.admits(f.right)
        if isinstance(f, Sub):
            return self.base in ("intdual", "biint") \
                and self.admits(f.left) and self.admits(f.right)
        if isinstance(f, Box):
            return 1 <= f.index <= self.n_boxes and self.admits(f.body)
        if isinstance(f, Dia):
            return 1 <= f.index <= self.m_diamonds and self.admits(f.body)
        if isinstance(f, TDia):
            return self.tense and 1 <= f.index <= self.n_boxes \
                and self.admits(f.body)
        if isinstance(f, TBox):
            return self.tense and 1 <= f.index <= self.m_diamonds \
                and self.admits(f.body)
        if isinstance(f, Ck):
            return self.base == "int" and not self.tense \
                and self.m_diamonds == 0 and self.admits(f.body)
        raise TypeError(f"not a formula node: {f!r}")


def random_formula(rng: random.Random, frag: Fragment, depth: int,
                   atoms: Sequence[str] = ("p", "q", "r"),
                   allow_ck: bool = False) -> Formula:
    """A formula the fragment admits, of nesting depth at most
    `depth`."""
    leaves: list = [("atom",), ("atom",), ("top",), ("bot",)]
    pool = list(leaves)
    if depth > 0:
        pool += [("and",), ("or",)] * 2
        if frag.base in ("int", "biint"):
            pool += [("imp",)] * 2
        if frag.base in ("intdual", "biint"):
            pool += [("sub",)] * 2
        for i in range(1, frag.n_boxes + 1):
            pool += [("box", i)] * 2
        for j in range(1, frag.m_diamonds + 1):
            pool += [("dia", j)] * 2
        if frag.tense:
            pool += [("tdia", i) for i in range(1, frag.n_boxes + 1)]
            pool += [("tbox", j) for j in range(1, frag.m_diamonds + 1)]
        if allow_ck:
            pool += [("ck",)]
    tag = rng.choice(pool)
    kind = tag[0]
    if kind == "atom":
        return Atom(rng.choice(list(atoms)))
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bot()

    def sub_formula():
        return random_formula(rng, frag, depth - 1, atoms, allow_ck)

    if kind == "and":
        return And(sub_formula(), sub_formula())
    if kind == "or":
        return Or(sub_formula(), sub_formula())
    if kind == "imp":
        return Imp(sub_formula(), sub_formula())
    if kind == "sub":
        return Sub(sub_formula(), sub_formula())
    if kind == "box":
        return Box(tag[1], sub_formula())
    if kind == "dia":
        return Dia(tag[1], sub_formula())
    if kind == "tdia":
        return TDia(tag[1], sub_formula())
    if kind == "tbox":
        return TBox(tag[1], sub_formula())
    return Ck(sub_formula())


# ---------------------------------------------------------------------------
# The comparisons

p, q, r = Atom("p"), Atom("q"), Atom("r")

FORMULAS = st.recursive(
    st.sampled_from([p, q, r, Atom("s1"), Top(), Bot()]),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Imp, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Box, st.integers(1, 3), kids),
        st.builds(Dia, st.integers(1, 3), kids),
        st.builds(TDia, st.integers(1, 3), kids),
        st.builds(TBox, st.integers(1, 3), kids),
        st.builds(Ck, kids)),
    max_leaves=25)

# Every character the token tables know, the starts of the two-character
# tokens on their own, and some that no token starts with.
TOKEN_TEXT = st.text(alphabet="pqx_9 ()&|~-.<>[]TFC0123$\t", max_size=40)

GRID = [Fragment(base, n, m, tense)
        for base in ("int", "intdual", "biint")
        for n in range(3) for m in range(3)
        for tense in (False, True) if base == "biint" or not tense]


def outcome(fn, *args):
    """fn's result, or its exception's type, text and offset."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def has_ck(f: Formula) -> bool:
    if isinstance(f, Ck):
        return True
    if isinstance(f, (And, Or, Imp, Sub)):
        return has_ck(f.left) or has_ck(f.right)
    return not isinstance(f, (Atom, Top, Bot)) and has_ck(f.body)


def edits(text: str, rng: random.Random) -> list[str]:
    """text with one character dropped, doubled or replaced, at a few
    seeded places."""
    out = []
    for _ in range(4):
        i = rng.randrange(len(text) + 1)
        c = rng.choice("()&|~-.<>[]TFC0 p")
        out += [text[:i] + text[i + 1:], text[:i] + text[i:i + 1] * 2
                + text[i + 1:], text[:i] + c + text[i + 1:]]
    return out


@settings(max_examples=300)
@given(FORMULAS, st.integers(0, 2**32))
def test_parse_matches_reference_on_printed_and_edited_text(f, seed):
    text = to_string(f)
    assert kf.parse(text) == parse(text) == f
    for edited in edits(text, random.Random(seed)):
        assert outcome(kf.parse, edited) == outcome(parse, edited), edited


@settings(max_examples=500)
@given(TOKEN_TEXT)
def test_parse_matches_reference_on_token_soup(text):
    assert outcome(kf.parse, text) == outcome(parse, text)


def ladder(depth: int) -> str:
    """[]1 (...) & q nested `depth` times around q, 2 * depth deep."""
    text = "q"
    for _ in range(depth):
        text = f"[]1 ({text}) & q"
    return text


def test_parse_matches_reference_on_malformed_and_deep_text():
    texts = ["", "-", "p -", "[", "[p", "[]", "[] p", "[]0 p", "[]01 p",
             "<", "<p", "<>", "<|x", "|", "|>", "|> 1 p", "p $ q", "P",
             "p & & q", "(p", "p )", "p -> q -< r", "p -< q -> r", "~",
             "-.", "C", "T F", "[]1 " * 301 + "p", "(" * 301 + "p" + ")" * 301,
             "p & " * 400 + "p", "-." * 400 + "p", "<|2 " * 300 + "p",
             # at and just past the caps, and a malformed token past the
             # parenthesis cap, which is still reported first
             ladder(150), ladder(151), "(" * 300 + "p" + ")" * 300,
             "~" * 300 + "p", "~" * 301 + "p", "-." * 300 + "p",
             "-." * 301 + "p", "(" * 301 + "p $",
             # a flat chain far longer than the cap
             "p & " * 25000 + "p"]
    for text in texts:
        assert outcome(kf.parse, text) == outcome(parse, text), text


def test_an_over_long_relation_index_is_a_parse_error():
    text = "[]" + "1" * 5000 + " p"
    with pytest.raises(ValueError):
        parse(text)
    with pytest.raises(ParseError, match="relation index is too long"):
        kf.parse(text)


@settings(max_examples=300)
@given(FORMULAS)
def test_translate_and_fragment_of_match_reference(f):
    assert outcome(kf.translate, f) == outcome(translate, f)
    assert outcome(kf.fragment_of, f) == outcome(fragment_of, f)


@settings(max_examples=300)
@given(FORMULAS)
def test_admits_matches_reference_but_for_c_without_a_box(f):
    for frag in GRID:
        got = frag.admits(f)
        want = ReferenceFragment(frag.base, frag.n_boxes, frag.m_diamonds,
                                 frag.tense).admits(f)
        if frag.n_boxes == 0 and has_ck(f):
            assert not got
        else:
            assert got == want, (frag, f)


def test_non_formulas_raise_the_same_type_error():
    bad = And(p, Or(object(), 3))
    assert outcome(kf.translate, bad) == outcome(translate, bad)
    assert outcome(kf.fragment_of, bad) == outcome(fragment_of, bad)
    assert outcome(kf.atoms_of, bad) == outcome(atoms_of, bad)
    assert outcome(kf.nesting_depth, bad) == outcome(nesting_depth, bad)
    # printing names the first bad child from the left, also a str one
    for bad in (bad, And(And(p, "q"), 3), Imp(Box(1, 3), "q"),
                Or(Ck("q"), 3)):
        assert outcome(kf.to_string, bad) == outcome(render, bad)
    # an arrow translates its right argument first
    for bad in (Imp(Ck(p), Or(q, 3)), Sub(Box(1, 3), Ck(q))):
        assert outcome(kf.translate, bad) == outcome(translate, bad)


@settings(max_examples=300)
@given(FORMULAS, FORMULAS)
def test_atoms_depth_and_equality_match_reference(f, g):
    assert kf.atoms_of(f) == atoms_of(f)
    assert kf.nesting_depth(f) == nesting_depth(f)
    # printing is one-to-one on trees, and a pickled copy shares no node
    for h in (g, f):
        copy = pickle.loads(pickle.dumps(h))
        same = render(f) == render(h)
        assert (f == copy) is same and (f != copy) is not same


def test_random_formula_matches_reference():
    # one stream per seed; the states are compared after each fragment's
    # ten draws, and a draw that took more or fewer numbers would also
    # change every formula after it
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for frag in GRID:
            for depth in range(5):
                for allow_ck in (False, True):
                    got = sampling.random_formula(rng, frag, depth,
                                                  allow_ck=allow_ck)
                    want = random_formula(ref, frag, depth,
                                          allow_ck=allow_ck)
                    assert got == want
            assert rng.getstate() == ref.getstate()


def nodes_of(f: Formula) -> list[Formula]:
    """Every node of f, parents before children."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        out.append(g)
        if isinstance(g, (And, Or, Imp, Sub)):
            todo += [g.right, g.left]
        elif not isinstance(g, (Atom, Top, Bot)):
            todo.append(g.body)
    return out


# Every context a stored text can land in: each side of each binary
# connective and under a prefix operator.
CONTEXTS = (lambda f: And(f, f), lambda f: Or(f, f), lambda f: Imp(f, f),
            lambda f: Sub(f, f), lambda f: Imp(Sub(f, f), Imp(f, f)),
            lambda f: Sub(Imp(f, f), Sub(f, f)), lambda f: Box(2, f),
            lambda f: Ck(f))


@settings(max_examples=300)
@given(FORMULAS, st.randoms(use_true_random=False))
def test_str_matches_the_reference_printer_in_any_order(f, rnd):
    nodes = nodes_of(f)
    rnd.shuffle(nodes)
    for g in nodes[:rnd.randrange(len(nodes) + 1)]:
        str(g)
    for g in [f] + nodes:
        assert str(g) == to_string(g) == render(g)
    for context in CONTEXTS:
        assert str(context(f)) == render(context(f))


def test_witness_texts_match_the_reference_printer_in_any_order():
    gallery = (
        [("spines", (k,), "spines", (k + 1,), Fragment("int", 1, 0))
         for k in range(1, 7)]
        + [("porcupine", (n,), "porcupine_trimmed", (n,),
            Fragment("biint", 0, 0)) for n in range(1, 5)])
    rnd = random.Random(90_000)
    for name, params, name2, params2, frag in gallery:
        _, witnesses = synthesize(build_example(name, params),
                                  build_example(name2, params2), frag)
        formulas = [w.formula for w in witnesses]
        want = [render(f) for f in formulas]
        # copies carry no stored text, so each order prints afresh
        for order in ("shuffled", "reversed", "synthesis"):
            copies = pickle.loads(pickle.dumps(formulas))
            indexes = list(range(len(copies)))
            if order == "shuffled":
                rnd.shuffle(indexes)
            elif order == "reversed":
                indexes.reverse()
            for i in indexes:
                assert str(copies[i]) == want[i]
        assert [w.to_dict()["formula"] for w in witnesses] == want
