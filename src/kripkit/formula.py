"""Formula syntax for intuitionistic and bi-intuitionistic modal languages.

Concrete syntax, binding tightest first:

    T  F              constants
    p  q3  my_atom    atoms (lowercase identifiers)
    ~a    -.a         negations, shorthand for a -> F and T -< a
    []1 a   <>2 a     forward box / diamond along an indexed relation
    <|1 a   |>2 a     backward diamond / box along the same relations
    C a               box along the shared closure of all box relations
    a & b             conjunction, left associative
    a | b             disjunction, left associative
    a -> b            implication, right associative
    a -< b            subtraction (co-implication), left associative

The two arrows bind equally weakly; a chain that mixes them without
parentheses is rejected instead of silently picking a reading.  The
tokenizer reads every symbol above from one token table: _TOKENS2
holds the two-character tokens, tried first, and _TOKENS1 the
one-character ones.  The printer takes its modal symbols from the same
table.
`parse` and `to_string` round-trip: printing inserts exactly the
parentheses needed to reparse to the same tree.  `parse` rejects
formulas nested more than MAX_DEPTH levels deep, or inside more than
MAX_DEPTH parentheses, with a ParseError.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import NamedTuple
from weakref import ref

from .errors import FragmentError, ParseError


def _check_index(index: int) -> None:
    # exactly int: a True index would equal 1, and Box(1, p) could then
    # be handed a shared node that prints as []True p
    if type(index) is not int or index < 1:
        raise ValueError(f"relation index must be a positive integer, "
                         f"got {index!r}")


class Formula:
    """Base class for formula nodes.  Instances are immutable and
    hash-consed: equal nodes are one object, so equality is identity.

    A node has one of five shapes: Atom, a constant, a binary
    connective, an indexed modality or Ck, each a frozen dataclass with
    eq=False and init=False.  A shape builds through its __new__, which
    looks its key, (its class, *its fields), up in one weak table,
    _NODES, and builds a node only when no live node has that key; an
    entry goes when its node dies, so the table holds no more nodes
    than callers do.  Children enter the key by identity, since they
    are interned first.  A node stores the hash of its key, so hashing
    costs O(1) at any depth.  Only evaluation recurses over the tree.

    connective_count and to_string remember their answers in one
    attribute outside the dataclass fields, _memo: the connective
    count, or (count, text) once the node is printed; a leaf's count,
    0, is a class attribute.  One attribute, because CPython 3.11 gives
    a node room for one attribute beyond those it was built with, and
    a second gives the node a dict of its own (about 230 bytes).  repr
    and hashing ignore _memo, and every caller of a node shares it."""

    def __str__(self) -> str:
        return to_string(self)

    def __hash__(self) -> int:
        return self._h

    # a shape's frozen __setattr__ passes non-fields of subclasses here
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: str hashes are salted per
        # process, so a stored hash must not travel in a pickle, and
        # the constructor hands back the live node where there is one.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# The nodes are frozen, so their fields and stored text are set through
# this; binding it here spares a lookup per node built.
_set = object.__setattr__


class _Ref(ref):
    """A weak reference to a node in _NODES that knows the node's key."""

    __slots__ = ("key",)


def _forget(r: _Ref) -> None:
    # a node rebuilt while r waited to be called holds the entry now
    if _NODES.get(r.key) is r:
        del _NODES[r.key]


# Every live node under its key, (class, *fields).  A plain dict of
# _Refs, not a WeakValueDictionary, keeps lookups and insertions out of
# Python-level methods: on CPython 3.11, building and dropping a fresh
# And took 2.0 us through a WeakValueDictionary and 1.5 us here.
_NODES: dict[tuple, _Ref] = {}


def _intern(key: tuple, names: tuple[str, ...]) -> Formula:
    """The live node whose key is key, or a new one whose fields names
    take the values key[1:]."""
    r = _NODES.get(key)
    if r is not None and (node := r()) is not None:
        return node
    node = object.__new__(key[0])
    for name, value in zip(names, key[1:]):
        _set(node, name, value)
    _set(node, "_h", hash(key))
    r = _NODES[key] = _Ref(node, _forget)
    r.key = key
    return node


@dataclass(frozen=True, eq=False, init=False)
class Atom(Formula):
    name: str

    _memo = 0  # the connective count of every leaf

    def __new__(cls, name):
        return _intern((cls, name), ("name",))


@dataclass(frozen=True, eq=False, init=False)
class _Const(Formula):
    """The shape of the constants T and F."""

    _memo = 0  # the connective count of every leaf

    def __new__(cls):
        return _intern((cls,), ())


@dataclass(frozen=True, eq=False, init=False)
class _Binary(Formula):
    """The shape of the binary connectives."""

    left: Formula
    right: Formula

    def __new__(cls, left, right):
        return _intern((cls, left, right), ("left", "right"))


@dataclass(frozen=True, eq=False, init=False)
class _Modal(Formula):
    """The shape of the modalities indexed by a relation."""

    index: int
    body: Formula

    def __new__(cls, index, body):
        _check_index(index)  # before the lookup: Box(1.0, p) finds Box(1, p)
        return _intern((cls, index, body), ("index", "body"))


@dataclass(frozen=True, eq=False, init=False)
class Ck(Formula):
    """Common knowledge: box along the transitive closure of the union
    of all box relations."""

    body: Formula

    def __new__(cls, body):
        return _intern((cls, body), ("body",))


# The concrete node classes, one line each: a class adds only its name,
# which the key of every node and the tables below read.
class Top(_Const): """The constant T, true everywhere."""
class Bot(_Const): """The constant F, true nowhere."""
class And(_Binary): """Conjunction a & b."""
class Or(_Binary): """Disjunction a | b."""
class Imp(_Binary): """Implication a -> b."""
class Sub(_Binary): """Subtraction a -< b: the co-implication dual to ->."""
class Box(_Modal): """Forward box []i: looks along box relation i."""
class Dia(_Modal): """Forward diamond <>j: looks along diamond relation j."""
class TDia(_Modal): """Backward diamond <|i: looks against box relation i."""
class TBox(_Modal): """Backward box |>j: looks against diamond relation j."""


# ---------------------------------------------------------------------------
# Tokenizer

# Token kinds by spelling.  Two-character tokens are tried first, so
# "|>" wins over "|"; a modal kind is the node class it builds, and a
# relation index follows it.
_TOKENS2 = {"->": "IMP", "-<": "SUB", "-.": "CONEG",
            "[]": Box, "<>": Dia, "<|": TDia, "|>": TBox}
_TOKENS1 = {"(": "LPAREN", ")": "RPAREN", "&": "AND", "|": "OR",
            "~": "NEG", "T": "TOP", "F": "BOT", "C": "CK"}
# Characters that only start two-character tokens.
_LONE = {"-": "lone '-': expected ->, -< or -.",
         "[": "'[' must start a box operator []",
         "<": "'<' must start <> or <|"}
# Testing a character against this set first spares most characters a
# slice; without it the tokenizer took about 28% longer.
_FIRST2 = {text[0] for text in _TOKENS2}
_MODAL_SYMBOL = {kind: text for text, kind in _TOKENS2.items()
                 if isinstance(kind, type)}

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")

# (kind, value, position) triples
_Token = tuple[object, object, int]


def _read_index(text: str, op_end: int) -> tuple[int, int]:
    m = _INT_RE.match(text, op_end)
    if not m:
        raise ParseError("expected a relation index after modal operator", op_end)
    try:
        index = int(m.group())
    except ValueError:  # more digits than int() converts
        raise ParseError("relation index is too long", op_end) from None
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
            continue
        kind = _TOKENS2.get(text[i:i + 2]) if c in _FIRST2 else None
        if kind is not None:
            if kind in _MODAL_SYMBOL:
                index, end = _read_index(text, i + 2)
                tokens.append((kind, index, i))
                i = end
            else:
                tokens.append((kind, None, i))
                i += 2
        elif (kind := _TOKENS1.get(c)) is not None:
            tokens.append((kind, None, i))
            i += 1
        elif c in _LONE:
            raise ParseError(_LONE[c], i)
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
# recurses twice per parenthesis and truth_set once per level (a chain
# of boxes evaluates to about 996 levels), against the default
# recursion limit of 1000.  Hashing and comparing visit one node, since
# a node stores its hash and equal nodes are one object; printing,
# translating and the structural measures walk with a stack.  300
# leaves room for a caller's stack some 60 frames deep, and 150 levels
# of "[]1 (...) & q" are 300 deep.
MAX_DEPTH = 300

# Prefix operators: token kind -> node built around the operand.  A
# modal kind is its own node class.
_PREFIX = {
    **{kind: kind for kind in _MODAL_SYMBOL},
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
            (g.left, g.right) if isinstance(g, _Binary) else
            () if isinstance(g, (Atom, _Const)) else (g.body,))]
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


# ---------------------------------------------------------------------------
# Printing

class _Text(str):
    """Text on the printer's stack, which a node's own fields, say a str
    where a formula belongs, are never taken for."""


_OPEN, _CLOSE = _Text("("), _Text(")")
# Each binary connective's symbol and the classes printed in
# parentheses as its left and right argument: those that bind more
# loosely (& before |, | before the arrows), and in an arrow chain the
# other arrow, since the parser refuses mixed chains.  A prefix
# operator wraps every binary connective.
_BINARY_LAYOUT = {And: (_Text(" & "), {Or, Imp, Sub}, {And, Or, Imp, Sub}),
                  Or: (_Text(" | "), {Imp, Sub}, {Or, Imp, Sub}),
                  Imp: (_Text(" -> "), {Imp, Sub}, {Sub}),
                  Sub: (_Text(" -< "), {Imp}, {Imp, Sub})}


def to_string(f: Formula) -> str:
    """Render with the minimal parenthesization that reparses to f.

    The text is stored on f, and only on f, so memory grows with what
    callers print, not with the square of a deep chain's depth; later
    renderings of f, or of formulas built over it, reuse it."""
    memo = getattr(f, "_memo", None)
    if type(memo) is tuple:
        return memo[1]
    text = _render(f)
    _set(f, "_memo", (connective_count(f), text))
    return text


def _render(f: Formula) -> str:
    """f's text, printed without recursion: the walk follows left or
    only children at once and stacks what comes after them, text and
    right children."""
    out: list[str] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is _Text:
            out.append(g)
            continue
        while True:
            # a stored text is g unparenthesised
            memo = getattr(g, "_memo", None)
            if type(memo) is tuple:
                out.append(memo[1])
                break
            if isinstance(g, Atom):
                out.append(g.name)
                break
            if isinstance(g, _Const):
                out.append("T" if isinstance(g, Top) else "F")
                break
            if isinstance(g, _Binary):
                symbol, wrapped, right_wrapped = _BINARY_LAYOUT[type(g)]
                right = g.right
                if type(right) in right_wrapped:
                    todo += (_CLOSE, right, _OPEN, symbol)
                else:
                    todo += (right, symbol)
                child = g.left
            elif isinstance(g, (_Modal, Ck)):
                out.append(f"{_MODAL_SYMBOL[type(g)]}{g.index} "
                           if isinstance(g, _Modal) else "C ")
                wrapped, child = _BINARY_LAYOUT, g.body
            else:
                raise TypeError(f"not a formula node: {g!r}")
            if type(child) in wrapped:
                out.append("(")
                todo.append(_CLOSE)
            g = child
    return "".join(out)


# ---------------------------------------------------------------------------
# Structural measures and fragments


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of the atoms in f, found without recursion."""
    names, todo = set(), [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        elif isinstance(g, _Binary):
            todo += (g.right, g.left)
        elif not isinstance(g, _Const):
            todo.append(g.body)
    return frozenset(names)


def _stored_count(f: Formula) -> int | None:
    memo = getattr(f, "_memo", None)
    return memo[0] if type(memo) is tuple else memo


def connective_count(f: Formula) -> int:
    """Number of connective nodes; atoms and constants count zero.

    A post-order walk without recursion that stores each node's count
    on the node and stops at nodes that have one already."""
    count = _stored_count(f)
    if count is not None:
        return count
    todo = [f]
    while todo:
        g = todo[-1]
        if isinstance(g, _Binary):
            left, right = _stored_count(g.left), _stored_count(g.right)
            if left is None:
                todo.append(g.left)
            if right is None:
                todo.append(g.right)
            if left is None or right is None:
                continue
            count = left + right + 1
        elif isinstance(g, Formula):
            body = _stored_count(g.body)
            if body is None:
                todo.append(g.body)
                continue
            count = body + 1
        else:
            raise TypeError(f"not a formula node: {g!r}")
        todo.pop()
        _set(g, "_memo", count)
    return count


def nesting_depth(f: Formula) -> int:
    """Alternation-aware nesting depth.

    Arrows and modal operators each open a layer, except that a modal
    operator applied directly to an arrow shares the arrow's layer:
    []1 (p -> q) is one layer deep, matching how one refinement round
    of the bisimulation game can introduce exactly that shape.
    Conjunction and disjunction are free.  The walk carries each
    node's count of layers above it, without recursion.
    """
    deepest, todo = 0, [(f, 0)]
    while todo:
        g, layers = todo.pop()
        if isinstance(g, _Binary):
            if isinstance(g, (Imp, Sub)):
                layers += 1
            todo += ((g.right, layers), (g.left, layers))
        elif not isinstance(g, (Atom, _Const)):
            # a modal operator over an arrow shares the arrow's layer
            body = g.body
            todo.append((body, layers if isinstance(body, (Imp, Sub))
                         else layers + 1))
        deepest = max(deepest, layers)
    return deepest


@dataclass(frozen=True)
class Fragment:
    """A sublanguage: which arrows are allowed, how many box and
    diamond relations exist, and whether the backward operators are in.

    base is 'int' (implication only), 'intdual' (subtraction only) or
    'biint' (both).  Backward operators require base 'biint'.
    """

    base: str = "biint"
    n_boxes: int = 0
    m_diamonds: int = 0
    tense: bool = False

    def __post_init__(self):
        if self.base not in ("int", "intdual", "biint"):
            raise FragmentError(f"unknown base {self.base!r}, "
                                "expected int, intdual or biint")
        if self.n_boxes < 0 or self.m_diamonds < 0:
            raise FragmentError("relation counts cannot be negative")
        if self.tense and self.base != "biint":
            raise FragmentError("backward operators need base 'biint'")

    def admits(self, f: Formula) -> bool:
        """Whether every connective of f lives inside this fragment.
        Common knowledge reads the box relations, so it needs a box,
        and it is only at home in implication-and-boxes fragments."""
        used = _usage(f)
        return ((not used.imp or self.base != "intdual")
                and (not used.sub or self.base != "int")
                and used.boxes <= self.n_boxes
                and used.diamonds <= self.m_diamonds
                and (not used.backward or self.tense)
                and (not used.ck
                     or self.base == "int" and self.m_diamonds == 0))


class _Usage(NamedTuple):
    """What a formula uses of the language.  C counts as implication
    and as box 1, since it takes their place over the box relations."""

    imp: bool
    sub: bool
    boxes: int  # highest box relation read, by []i or <|i
    diamonds: int  # highest diamond relation read, by <>j or |>j
    backward: bool
    ck: bool


def _usage(f: Formula) -> _Usage:
    """What f uses, found without recursion."""
    imp = sub = backward = ck = False
    boxes = diamonds = 0
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (Atom, _Const)):
            continue
        if isinstance(g, _Binary):
            if isinstance(g, Imp):
                imp = True
            elif isinstance(g, Sub):
                sub = True
            todo.append(g.right)
            todo.append(g.left)
            continue
        if isinstance(g, (Box, TDia)):
            boxes = max(boxes, g.index)
            if isinstance(g, TDia):
                backward = True
        elif isinstance(g, (Dia, TBox)):
            diamonds = max(diamonds, g.index)
            if isinstance(g, TBox):
                backward = True
        elif isinstance(g, Ck):
            imp = ck = True
            boxes = max(boxes, 1)
        else:
            raise TypeError(f"not a formula node: {g!r}")
        todo.append(g.body)
    return _Usage(imp, sub, boxes, diamonds, backward, ck)


def fragment_of(f: Formula) -> Fragment:
    """Smallest fragment containing f.

    Arrow-free formulas report base 'int': nothing in them separates
    the two bases, so the positive choice is the canonical one.
    """
    used = _usage(f)
    if used.ck and (used.sub or used.backward or used.diamonds > 0):
        raise FragmentError(
            "common knowledge does not combine with subtraction, diamonds "
            "or backward operators; no fragment admits this formula")
    if used.backward or (used.imp and used.sub):
        base = "biint"
    elif used.sub:
        base = "intdual"
    else:
        base = "int"
    return Fragment(base, used.boxes, used.diamonds, used.backward)


# ---------------------------------------------------------------------------
# The dualizing translation

# Each connective's order-dual; the arrows also swap their arguments.
_DUAL = {Top: Bot, Bot: Top, And: Or, Or: And, Imp: Sub, Sub: Imp,
         Box: Dia, Dia: Box, TDia: TBox, TBox: TDia}


def translate(f: Formula) -> Formula:
    """Swap each connective with its order-dual, keeping atoms and
    relation indexes fixed.  Applying it twice gives back the input.

    A walk without recursion that checks each node when it first
    reaches it and translates a node's arguments one after the other,
    an arrow's right one first since the arrow swaps them; so the node
    that raises is the first without a dual in that order.
    """
    done = {}  # id of each node translated -> its dual
    todo = [f]
    while todo:
        g = todo[-1]
        dual = _DUAL.get(type(g))
        if dual is None:
            if isinstance(g, Ck):
                raise FragmentError("common knowledge has no order-dual here")
            if not isinstance(g, Atom):
                raise TypeError(f"not a formula node: {g!r}")
            args = ()
        elif isinstance(g, _Binary):
            args = ((g.right, g.left) if dual is Sub or dual is Imp
                    else (g.left, g.right))
        else:
            args = (g.body,) if isinstance(g, _Modal) else ()
        missing = [a for a in args if id(a) not in done]
        if missing:
            todo.append(missing[0])
            continue
        duals = [done[id(a)] for a in args]
        if isinstance(g, _Modal):
            duals.insert(0, g.index)
        done[id(todo.pop())] = g if dual is None else dual(*duals)
    return done[id(f)]
