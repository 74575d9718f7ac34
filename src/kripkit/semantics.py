"""Truth sets of formulas over models.

The order connectives always read the same way:

    x ⊨ a -> b   iff every y ≥ x in [[a]] is in [[b]]
    x ⊨ a -< b   iff some  y ≤ x is in [[a]] but not [[b]]

Modal clauses depend on the model's flavor.  Each flavor resolves a
modal operator to an effective relation and then applies the usual
clause (box: all successors, diamond: some successor):

    flavor     []i          <>j          <|i           |>j
    standard   R_i          S_j          -             -
    fs         ≤∘R          R            -             -
    gpt        ≤∘R          S            R̆             ≤∘S̆
    tense      R            S            R̆             S̆
    h          R            ≥∘R∘≥        R̆             ≤∘R̆∘≤
    ek         R_i          -            -             -

where R̆ is the converse.  The h row derives its diamond from the box
relation: the left converse ≥∘R∘≥ is what keeps truth sets upward
closed with only one stored relation.  Common knowledge C is evaluable
on ek models only and quantifies over chains of knowledge steps (the
positive transitive closure of the union; pass ck_reflexive=True for
the reflexive variant).

Each model keeps one successor table: the successor map of the
effective relation of operator (op, i), with ck_reflexive in place of
i for C, is built the first time any evaluator asks for it and read
from then on.  truth_set, semantic_operator, genframe and the oracle
in distinguish all read these maps, so the choice of relation above is
made here and nowhere else.  Truth sets are cached on the model as
well, keyed by formula, so repeated evaluation during bisimulation
checks stays cheap.
"""

from __future__ import annotations

from . import relations as rel
from .errors import FlavorError, PreconditionError
from .formula import (And, Atom, Bot, Box, Ck, Dia, Formula, Imp, Or, Sub,
                      TBox, TDia, Top)
from .model import EK, FS, GPT, H, STANDARD, TENSE, Model


def left_converse(r: frozenset, m: Model) -> frozenset:
    """≥ ∘ r ∘ ≥ : the derived diamond relation of single-relation
    bi-intuitionistic models."""
    return rel.compose_all(m.geq, r, m.geq)


def _stored_box(m: Model, index: int) -> frozenset:
    if not 1 <= index <= len(m.boxes):
        raise FlavorError(
            f"model has no box relation {index} (flavor {m.flavor!r} "
            f"stores {len(m.boxes)})")
    return m.boxes[index - 1]


def _stored_dia(m: Model, index: int) -> frozenset:
    if not 1 <= index <= len(m.diamonds):
        raise FlavorError(
            f"model has no diamond relation {index} (flavor {m.flavor!r} "
            f"stores {len(m.diamonds)})")
    return m.diamonds[index - 1]


def box_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose universal image interprets []index."""
    if m.flavor in (STANDARD, TENSE, H, EK):
        return _stored_box(m, index)
    if m.flavor in (FS, GPT):
        return rel.compose(m.leq, _stored_box(m, index))
    raise FlavorError(f"flavor {m.flavor!r} does not interpret []")


def dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation whose existential image interprets <>index."""
    if m.flavor in (STANDARD, GPT, TENSE):
        return _stored_dia(m, index)
    if m.flavor == FS:
        return _stored_box(m, index)
    if m.flavor == H:
        return left_converse(_stored_box(m, index), m)
    raise FlavorError(f"flavor {m.flavor!r} does not interpret <>")


def back_dia_relation(m: Model, index: int) -> frozenset:
    """Effective relation for <|index, which looks backward along the
    box relation."""
    if m.flavor in (GPT, TENSE, H):
        return rel.converse(_stored_box(m, index))
    raise FlavorError(f"flavor {m.flavor!r} does not interpret <|")


def back_box_relation(m: Model, index: int) -> frozenset:
    """Effective relation for |>index, which looks backward along the
    diamond relation."""
    if m.flavor == TENSE:
        return rel.converse(_stored_dia(m, index))
    if m.flavor == GPT:
        return rel.compose(m.leq, rel.converse(_stored_dia(m, index)))
    if m.flavor == H:
        return rel.compose_all(m.leq, rel.converse(_stored_box(m, index)),
                               m.leq)
    raise FlavorError(f"flavor {m.flavor!r} does not interpret |>")


def ck_relation(m: Model, reflexive: bool = False) -> frozenset:
    """Chains of knowledge steps: the transitive closure of the union
    of all knowledge relations, reflexive on demand."""
    if m.flavor != EK:
        raise FlavorError(f"flavor {m.flavor!r} does not interpret C")
    return rel.transitive_closure(m.boxes, reflexive=reflexive,
                                  states=m.states)


def _forall(states, succ, a) -> frozenset:
    return frozenset(x for x in states if succ[x] <= a)


def _exists(states, succ, a) -> frozenset:
    return frozenset(x for x in states if succ[x] & a)


def _imp(m: Model, a, b) -> frozenset:
    return frozenset(x for x in m.states if m.up_map[x] & a <= b)


def _sub(m: Model, a, b) -> frozenset:
    return frozenset(x for x in m.states if m.down_map[x] & a - b)


# Each modal operator's effective relation, and its clause: all
# successors (box-like) or some successor (diamond-like).
_MODAL = {Box: (box_relation, _forall), Dia: (dia_relation, _exists),
          TDia: (back_dia_relation, _exists),
          TBox: (back_box_relation, _forall), Ck: (ck_relation, _forall)}


def _successors(m: Model, op: type, index) -> dict[str, frozenset]:
    """Successor map, total on m's states, of the effective relation
    interpreting operator op (a key of _MODAL) with this index, or
    with ck_reflexive for Ck.  Built once per model; a FlavorError is
    raised on every request the model cannot interpret."""
    key = (op, index)
    succ = m._succ_table.get(key)
    if succ is None:
        raw = rel.successors(_MODAL[op][0](m, index))
        succ = m._succ_table[key] = {x: frozenset(raw.get(x, ()))
                                     for x in m.states}
    return succ


def truth_set(f: Formula, m: Model, ck_reflexive: bool = False) -> frozenset:
    """All states of m where f holds.  On a valid model this is always
    an upset of the order (persistence).  m is not validated, so on a
    model that breaks its frame conditions, say with a valuation that
    is not upward closed, the result need not be an upset."""
    key = (f, ck_reflexive)
    cached = m._eval_cache.get(key)
    if cached is not None:
        return cached

    def ev(g: Formula) -> frozenset:
        return truth_set(g, m, ck_reflexive)

    op = type(f)
    if isinstance(f, Atom):
        out = m.valuation.get(f.name, frozenset())
    elif isinstance(f, Top):
        out = m.state_set
    elif isinstance(f, Bot):
        out = frozenset()
    elif isinstance(f, And):
        out = ev(f.left) & ev(f.right)
    elif isinstance(f, Or):
        out = ev(f.left) | ev(f.right)
    elif isinstance(f, Imp):
        out = _imp(m, ev(f.left), ev(f.right))
    elif isinstance(f, Sub):
        out = _sub(m, ev(f.left), ev(f.right))
    elif op in _MODAL:
        succ = _successors(m, op, ck_reflexive if op is Ck else f.index)
        out = _MODAL[op][1](m.states, succ, ev(f.body))
    else:
        raise FlavorError(f"no evaluation clause for {op.__name__}")
    m._eval_cache[key] = out
    return out


_BARS = {"boxbar": Box, "diabar": Dia}


def _operator(kind: str):
    """Parse a set-level connective name into its arity and its clause,
    a function of the model and the argument sets.  Raises ValueError
    on any other name."""
    if kind == "arrow":
        return 2, _imp
    if kind == "coarrow":
        return 2, _sub
    name, _, suffix = kind.rpartition("_")
    if name in _BARS and suffix.isdigit() and int(suffix) >= 1:
        op, index = _BARS[name], int(suffix)
        clause = _MODAL[op][1]
        return 1, lambda m, a: clause(m.states, _successors(m, op, index), a)
    raise ValueError(f"unknown semantic operator {kind!r}")


def semantic_operator(kind: str, m: Model, a: frozenset,
                      b: frozenset | None = None) -> frozenset:
    """Apply one set-level connective.  Kinds: "arrow" and "coarrow"
    are binary; "boxbar_i" and "diabar_j" are unary with the relation
    index (at least 1) baked into the name.  Arguments must be upsets,
    since the operators are only meaningful on the upset lattice."""
    for arg in (a, b):
        if arg is not None and not rel.is_upset(m.leq, frozenset(arg)):
            raise PreconditionError(
                f"semantic operator arguments must be upsets; "
                f"{sorted(arg)} is not upward closed")
    arity, clause = _operator(kind)
    if arity == 2 and b is None:
        raise ValueError(f"{kind} needs two arguments")
    if arity == 1 and b is not None:
        raise ValueError(f"{kind} takes one argument")
    return clause(m, a) if b is None else clause(m, a, b)
