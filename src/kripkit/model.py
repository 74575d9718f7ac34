"""Finite Kripke models: a preorder, modal relations, an upset valuation.

A model carries its states, the intuitionistic order leq (written ≤ in
comments), a list of box relations, a list of diamond relations, a
valuation mapping atoms to state sets, and a flavor string saying which
coherence discipline the relations follow:

    standard  n boxes, m diamonds; (≤∘R_i) ⊆ (R_i∘≤), (≥∘S_j) ⊆ (S_j∘≥)
    fs        one relation, stored as boxes[0], read by both box and
              diamond; (R∘≤) ⊆ (≤∘R) and (≥∘R) ⊆ (R∘≥)
    gpt       one R, one S; (R∘≤) ⊆ (≤∘R), (≥∘S) ⊆ (S∘≥)
    tense     one R, one S; (≤∘R) = (R∘≤), (≥∘S) = (S∘≥)
    h         one R with (≤∘R∘≤) ⊆ R; the diamond relation is derived
    ek        n knowledge relations with (≤∘R_i) ⊆ R_i

Composition reads left to right: x (Z∘Z') y means x Z u and u Z' y for
some u.  Models are immutable after construction and all operations
here are pure, so instances are safe to share.

Only the constructor reads relations as pairs: the JSON loader, the
surgery below, a change of flavor and sampling build their models on
bit rows, through Model._from_rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, Sequence

from . import relations as rel
from .errors import FlavorError, ModelFormatError, PreconditionError

STANDARD = "standard"
FS = "fs"
GPT = "gpt"
TENSE = "tense"
H = "h"
EK = "ek"

FLAVORS = (STANDARD, FS, GPT, TENSE, H, EK)

# stored relation counts per flavor: (boxes, diamonds), None = any number
_SHAPES = {
    STANDARD: (None, None),
    FS: (1, 0),
    GPT: (1, 1),
    TENSE: (1, 1),
    H: (1, 0),
    EK: (None, 0),
}

_ATOM_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


@dataclass(frozen=True)
class Violation:
    """One broken model axiom with the state path that breaks it.

    The witness traces the offending instance: (x,) for missing
    reflexivity, (x,y,z) for missing transitivity, (atom,x,y) for a
    non-upset valuation, and the composition path, endpoints included,
    for a coherence condition.
    """

    axiom: str
    witness: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.axiom} at ({', '.join(self.witness)})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    strictly_condensed: bool

    @property
    def ok(self) -> bool:
        return not self.violations


class Model:
    """Immutable finite Kripke model.

    The raw constructor stores leq exactly as given; use Model.make or
    the JSON loader to close a generating set of order pairs into a
    preorder.  Frame conditions are never enforced here — validate()
    reports them, so broken models can be built and inspected.

    The model holds its order and stored relations as bit rows over
    the sorted states (see relations): state i is bit 1 << i, and row
    i is the mask of state i's targets.  Evaluation reads only the
    rows.  leq, boxes, diamonds and the maps derived from them are
    views, decoded into frozensets the first time something reads
    them, at one step per pair.
    """

    def __init__(self, states: Iterable[str],
                 leq: Iterable[tuple[str, str]],
                 boxes: Sequence[Iterable[tuple[str, str]]] = (),
                 diamonds: Sequence[Iterable[tuple[str, str]]] = (),
                 valuation: Mapping[str, Iterable[str]] | None = None,
                 flavor: str = STANDARD):
        states = list(states)
        _check_states(states)
        names = tuple(sorted(states))
        index = {x: i for i, x in enumerate(names)}
        bit = {x: 1 << i for x, i in index.items()}

        def rows(pairs, what) -> list[int]:
            out = [0] * len(index)
            for a, b in map(tuple, pairs):
                try:
                    out[index[a]] |= bit[b]
                except KeyError:
                    raise ModelFormatError(
                        f"{what} mentions unknown state in ({a}, {b})") \
                        from None
            return out

        self._set_rows(names, index, rows(leq, "leq"),
                       [rows(r, f"box relation {i}")
                        for i, r in enumerate(boxes, 1)],
                       [rows(s, f"diamond relation {j}")
                        for j, s in enumerate(diamonds, 1)],
                       valuation, flavor)

    @classmethod
    def _from_rows(cls, states: tuple[str, ...], index: dict[str, int],
                   leq_rows: list[int], box_rows: Sequence[list[int]],
                   dia_rows: Sequence[list[int]],
                   valuation: Mapping[str, Iterable[str]] | None,
                   flavor: str) -> "Model":
        """A model on rows over the sorted states that index numbers,
        shared as they are (models never change their rows); states,
        flavor and valuation are checked as the constructor checks them."""
        _check_states(states)
        m = cls.__new__(cls)
        m._set_rows(states, index, leq_rows, box_rows, dia_rows, valuation,
                    flavor)
        return m

    def _set_rows(self, states: tuple[str, ...], index: dict[str, int],
                  leq_rows: list[int], box_rows: Sequence[list[int]],
                  dia_rows: Sequence[list[int]],
                  valuation: Mapping[str, Iterable[str]] | None,
                  flavor: str) -> None:
        """The rest of construction, from rows over the sorted states
        that index numbers: the flavor's relation counts, the valuation
        and the empty caches.  The constructor and _from_rows both end
        here."""
        self.states = states
        self._index = index
        self._leq_rows = leq_rows
        self._box_rows = tuple(box_rows)
        self._dia_rows = tuple(dia_rows)

        if flavor not in FLAVORS:
            raise ModelFormatError(f"unknown flavor {flavor!r}")
        want_boxes, want_diamonds = _SHAPES[flavor]
        n_boxes, n_diamonds = len(self._box_rows), len(self._dia_rows)
        if want_boxes is not None and n_boxes != want_boxes:
            raise ModelFormatError(
                f"flavor {flavor!r} stores exactly {want_boxes} box "
                f"relation(s), got {n_boxes}")
        if flavor == EK and not n_boxes:
            raise ModelFormatError("flavor 'ek' needs at least one relation")
        if want_diamonds is not None and n_diamonds != want_diamonds:
            raise ModelFormatError(
                f"flavor {flavor!r} stores exactly {want_diamonds} diamond "
                f"relation(s), got {n_diamonds}")
        self.flavor = flavor

        self.valuation: dict[str, frozenset[str]] = {}
        for atom in sorted(valuation or {}):
            if not _ATOM_NAME.match(atom):
                raise ModelFormatError(
                    f"atom name {atom!r} is not a lowercase identifier")
            self.valuation[atom] = _known(self, valuation[atom],
                                          f"valuation of {atom}")
        self._eval_cache: dict = {}
        self._succ_table: dict = {}  # see semantics._succ_masks
        self._validation: ValidationReport | None = None

    @classmethod
    def make(cls, states: Iterable[str],
             leq_gen: Iterable[tuple[str, str]],
             boxes: Sequence[Iterable[tuple[str, str]]] = (),
             diamonds: Sequence[Iterable[tuple[str, str]]] = (),
             valuation: Mapping[str, Iterable[str]] | None = None,
             flavor: str = STANDARD) -> "Model":
        """Build a model from order generators: leq_gen is closed
        reflexively and transitively over the carrier, on the rows."""
        m = cls(states, leq_gen, boxes, diamonds, valuation, flavor)
        _close_order(m._leq_rows)
        return m

    # -- derived views ---------------------------------------------------

    @cached_property
    def leq(self) -> frozenset[tuple[str, str]]:
        return _pair_view(self.states, self._leq_rows)

    @cached_property
    def boxes(self) -> tuple[frozenset, ...]:
        return tuple(_pair_view(self.states, r) for r in self._box_rows)

    @cached_property
    def diamonds(self) -> tuple[frozenset, ...]:
        return tuple(_pair_view(self.states, s) for s in self._dia_rows)

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self.valuation)

    @cached_property
    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    @cached_property
    def geq(self) -> frozenset[tuple[str, str]]:
        return rel.converse(self.leq)

    @cached_property
    def up_map(self) -> dict[str, frozenset[str]]:
        return _map_view(self.states, self._leq_rows)

    @cached_property
    def down_map(self) -> dict[str, frozenset[str]]:
        return _map_view(self.states, rel._transpose(self._leq_rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        # equal states number alike, so equal relations have equal rows
        return (self.states == other.states
                and self._leq_rows == other._leq_rows
                and self._box_rows == other._box_rows
                and self._dia_rows == other._dia_rows
                and self.valuation == other.valuation
                and self.flavor == other.flavor)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Model({len(self.states)} states, {len(self._box_rows)} "
                f"boxes, {len(self._dia_rows)} diamonds, "
                f"flavor={self.flavor!r})")

    def validate(self) -> ValidationReport:
        if self._validation is None:
            self._validation = _validate(self)
        return self._validation


def _check_states(states: list) -> None:
    """Raise ModelFormatError unless states is a nonempty list of
    distinct nonempty strings."""
    if not states:
        raise ModelFormatError("a model needs at least one state")
    if len(set(states)) != len(states):
        raise ModelFormatError("duplicate state names")
    if not all(isinstance(s, str) and s for s in states):
        raise ModelFormatError("state names must be nonempty strings")


def _close_order(rows: list[int]) -> None:
    """Close order rows reflexively and transitively, in place."""
    rel._close_rows(rows)
    for i in range(len(rows)):
        rows[i] |= 1 << i


def _known(m: Model, xs: Iterable[str], what: str) -> frozenset[str]:
    """xs as a set of m's states, else ModelFormatError names what
    mentions the least unknown one."""
    xs = frozenset(xs)
    unknown = xs - m.state_set
    if unknown:
        raise ModelFormatError(
            f"{what} mentions unknown state {min(unknown)!r}")
    return xs


def _pair_view(states: tuple[str, ...], rows: list[int]) -> frozenset:
    return frozenset(rel._row_pairs(zip(states, rows), states))


def _map_view(states: tuple[str, ...],
              rows: list[int]) -> dict[str, frozenset[str]]:
    return {x: frozenset(rel._names(states, row))
            for x, row in zip(states, rows)}


class Partition:
    """Assignment of every state to a named block."""

    def __init__(self, block_of: Mapping[str, str]):
        self.block_of: dict[str, str] = dict(sorted(block_of.items()))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        """Name each block by its least member.  Overlapping blocks are
        rejected."""
        assignment: dict[str, str] = {}
        for block in blocks:
            block = sorted(block)
            if not block:
                raise ModelFormatError("empty partition block")
            name = block[0]
            for s in block:
                if s in assignment:
                    raise ModelFormatError(f"state {s!r} is in two blocks")
                assignment[s] = name
        return cls(assignment)

    def blocks(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for state, name in self.block_of.items():
            out.setdefault(name, set()).add(state)
        return {name: frozenset(members) for name, members in sorted(out.items())}

    def covers(self, states: Iterable[str]) -> bool:
        return set(self.block_of) == set(states)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.block_of == other.block_of

    __hash__ = None

    def __repr__(self) -> str:
        return f"Partition({len(self.blocks())} blocks)"


# ---------------------------------------------------------------------------
# Validation


def _inclusion_witness(m: Model, parts: Sequence[list[int]],
                       allowed: list[int]):
    """First composition path, in sorted order, through the relations
    whose rows are `parts` whose endpoints are not in the relation
    whose rows are `allowed`, or None.  The path includes every
    intermediate state, so a two-relation condition yields (x, u, y).

    The inclusion is tested on rows, in memory quadratic in the
    states.  Only a failure is searched for its path: from the least
    state x whose composite row leaves allowed, each step takes the
    least successor from which the rest of the path still reaches a
    state y with (x, y) outside allowed."""
    # reach[j] holds the rows of parts[j] ∘ ... ∘ parts[-1]
    reach = [parts[-1]]
    for part in reversed(parts[:-1]):
        reach.insert(0, rel._compose_rows(part, reach[0]))
    for x, row in enumerate(reach[0]):
        bad = row & ~allowed[x]
        if bad:
            path = [x]
            for part, rest in zip(parts, reach[1:]):
                path.append(next(u for u in rel._bits(part[path[-1]])
                                 if rest[u] & bad))
            path.append(next(rel._bits(parts[-1][path[-1]] & bad)))
            return tuple(m.states[i] for i in path)
    return None


def _coherence_violations(m: Model) -> list[Violation]:
    leq, geq = m.leq, m.geq
    up, down = m._leq_rows, rel._transpose(m._leq_rows)
    index = m._index
    out: list[Violation] = []

    def need(axiom, parts, target):
        allowed = [0] * len(index)
        for a, b in target:
            allowed[index[a]] |= 1 << index[b]
        w = _inclusion_witness(m, parts, allowed)
        if w is not None:
            out.append(Violation(axiom, w))

    if m.flavor == STANDARD:
        for i, (r, rows) in enumerate(zip(m.boxes, m._box_rows), 1):
            need(f"box-{i}-coherence", [up, rows], rel.compose(r, leq))
        for j, (s, rows) in enumerate(zip(m.diamonds, m._dia_rows), 1):
            need(f"diamond-{j}-coherence", [down, rows], rel.compose(s, geq))
    elif m.flavor == FS:
        r, rows = m.boxes[0], m._box_rows[0]
        need("fs-forward-coherence", [rows, up], rel.compose(leq, r))
        need("fs-backward-coherence", [down, rows], rel.compose(r, geq))
    elif m.flavor == GPT:
        r, s = m.boxes[0], m.diamonds[0]
        r_rows, s_rows = m._box_rows[0], m._dia_rows[0]
        need("gpt-box-coherence", [r_rows, up], rel.compose(leq, r))
        need("gpt-diamond-coherence", [down, s_rows], rel.compose(s, geq))
    elif m.flavor == TENSE:
        r, s = m.boxes[0], m.diamonds[0]
        r_rows, s_rows = m._box_rows[0], m._dia_rows[0]
        need("tense-box-equality", [up, r_rows], rel.compose(r, leq))
        need("tense-box-equality", [r_rows, up], rel.compose(leq, r))
        need("tense-diamond-equality", [down, s_rows], rel.compose(s, geq))
        need("tense-diamond-equality", [s_rows, down], rel.compose(geq, s))
    elif m.flavor == H:
        need("h-condensation", [up, m._box_rows[0], up], m.boxes[0])
    elif m.flavor == EK:
        for i, (r, rows) in enumerate(zip(m.boxes, m._box_rows), 1):
            need(f"ek-box-{i}-absorption", [up, rows], r)
    return out


def _is_strictly_condensed(m: Model) -> bool:
    leq, geq = m.leq, m.geq
    if m.flavor == FS:
        return rel.compose(leq, m.boxes[0]) <= m.boxes[0]
    if m.flavor == GPT:
        r, s = m.boxes[0], m.diamonds[0]
        return (rel.compose(leq, r) <= r) and (rel.compose(s, geq) <= s)
    boxes_ok = all(rel.compose_all(leq, r, leq) <= r for r in m.boxes)
    diamonds_ok = all(rel.compose_all(geq, s, geq) <= s for s in m.diamonds)
    return boxes_ok and diamonds_ok


def _validate(m: Model) -> ValidationReport:
    """validate's report.  The order's own axioms and the upsets are
    read off its rows, whose lowest bits are the least states."""
    states, index, leq = m.states, m._index, m._leq_rows
    violations = [Violation("reflexivity", (x,))
                  for i, (x, row) in enumerate(zip(states, leq))
                  if not row >> i & 1]
    w = _inclusion_witness(m, [leq, leq], leq)
    if w is not None:
        violations.append(Violation("transitivity", w))
    for atom, xs in m.valuation.items():
        mask = 0
        for x in xs:
            mask |= 1 << index[x]
        for i in rel._bits(mask):
            out = leq[i] & ~mask
            if out:
                j = (out & -out).bit_length() - 1
                violations.append(
                    Violation("valuation-upset", (atom, states[i], states[j])))
                break
    violations.extend(_coherence_violations(m))
    return ValidationReport(tuple(violations), _is_strictly_condensed(m))


def validate(m: Model) -> ValidationReport:
    """Check preorder axioms, upset valuations and the flavor's
    coherence conditions.  Violations are data, not exceptions."""
    return m.validate()


def require_valid(m: Model, context: str) -> None:
    report = m.validate()
    if not report.ok:
        raise PreconditionError(
            f"{context} needs a valid model; first violation: "
            f"{report.violations[0]}")


# ---------------------------------------------------------------------------
# Model surgery


def dualize(m: Model) -> Model:
    """Mirror a model across the order: reverse ≤, complement the
    valuation, and let boxes and diamonds trade places.  An involution.

    Defined for standard models and, by swapping the two stored
    relations, for tense models.  The other flavors have no matching
    dual discipline and are rejected.
    """
    require_valid(m, "dualize")
    if m.flavor not in (STANDARD, TENSE):
        raise FlavorError(f"flavor {m.flavor!r} has no dual")
    co_val = {atom: m.state_set - xs for atom, xs in m.valuation.items()}
    return Model._from_rows(m.states, m._index, rel._transpose(m._leq_rows),
                            m._dia_rows, m._box_rows, co_val, m.flavor)


def strictify(m: Model) -> Model:
    """Absorb the order into the modal relations without changing any
    truth set.  The result is strictly condensed.

    Standard and tense models compose on the outside (R∘≤, S∘≥); GPT
    models compose the box side on the inside (≤∘R) to match how their
    box already quantifies through ≤.
    """
    require_valid(m, "strictify")
    up = m._leq_rows
    down = rel._transpose(up)
    if m.flavor in (STANDARD, TENSE):
        boxes = [rel._compose_rows(r, up) for r in m._box_rows]
    elif m.flavor == GPT:
        boxes = [rel._compose_rows(up, m._box_rows[0])]
    else:
        raise FlavorError(f"flavor {m.flavor!r} has no strictification recipe")
    diamonds = [rel._compose_rows(s, down) for s in m._dia_rows]
    return Model._from_rows(m.states, m._index, up, boxes, diamonds,
                            m.valuation, m.flavor)


def quotient(m: Model, p: Partition, conditions=None):
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
    names = tuple(sorted(set(blk.values())))
    index = {x: i for i, x in enumerate(names)}
    target = [index[blk[x]] for x in m.states]
    # each row lifts into its block's row as its targets' block bits
    block_bits = [1 << t for t in target]

    def lift(rows):
        out = [0] * len(names)
        for t, row in zip(target, rel._compose_rows(rows, block_bits)):
            out[t] |= row
        return out

    lifted = Model._from_rows(
        names, index, lift(m._leq_rows),
        [lift(r) for r in m._box_rows], [lift(s) for s in m._dia_rows],
        {atom: {blk[x] for x in xs} for atom, xs in m.valuation.items()},
        m.flavor)
    if conditions is not None:
        from .bisim import is_bisimulation
        graph = frozenset((x, blk[x]) for x in m.states)
        bad = is_bisimulation(graph, m, lifted, conditions)
        if bad:
            raise PreconditionError(
                "partition is not bisimulation-closed: "
                f"{bad[0]}")
    return lifted, dict(blk)


def enrich_valuation(m: Model, defs: Sequence[tuple[str, object]]) -> Model:
    """Extend the valuation with fresh atoms denoting formula truth
    sets: each (name, formula) pair adds V(name) = eval(formula)."""
    from .semantics import truth_set
    val = dict(m.valuation)
    for atom, formula in defs:
        if atom in val:
            raise ModelFormatError(f"atom {atom!r} already has a valuation")
        val[atom] = truth_set(formula, m)
    return Model._from_rows(m.states, m._index, m._leq_rows, m._box_rows,
                            m._dia_rows, val, m.flavor)


# ---------------------------------------------------------------------------
# Example gallery


# Largest gallery model build_example makes, in states and in pairs of
# its order; spines(140), with 9,871 of each, builds in about 0.1 s.
MAX_EXAMPLE_SIZE = 10_000


def _example_size(name: str, k: int) -> tuple[int, int]:
    """States and order pairs of gallery model name(k), counted without
    building it."""
    if name == "spines":
        states = 1 + k * (k + 1) // 2
        return states, states
    if name == "omega_chain":
        return k + 2, (k + 2) * (k + 3) // 2
    # porcupines: chain j holds j states and j(j+1)/2 pairs of its own,
    # and each of its states lies below x
    top = k + 1 if name == "porcupine" else k
    return (1 + top * (top + 1) // 2,
            1 + top * (top + 1) * (top + 2) // 6 + top * (top + 1) // 2)


def build_example(name: str, params: Sequence[int] = ()) -> Model:
    """Small named models used throughout the documentation and tests.

    wedge               three states; R reaches only the bottom of a
                        two-point chain, so it is valid but not
                        strictly condensed
    wedge_strict        the same carrier with the strictified relation
    spines k            a root with paths of lengths 1..k hanging off
                        it, trivial order, no atoms
    porcupine n         increasing chains of lengths 1..n+1 below a
                        top point x; atoms p0..pn mark chain height, q
                        marks x
    porcupine_trimmed n like porcupine but with chains 1..n only
    omega_chain n       the chain 0 ≤ 1 ≤ ... ≤ n ≤ inf with
                        p_i = {states from i up}

    A parameter whose model would have more than MAX_EXAMPLE_SIZE
    states, or more than MAX_EXAMPLE_SIZE pairs in its order, is
    refused with a ModelFormatError before anything is built.
    """
    if name in ("wedge", "wedge_strict"):
        if params:
            raise ModelFormatError(f"{name} takes no parameter")
        r = {("x", "y"), ("x", "z")} if name == "wedge_strict" else {("x", "y")}
        return Model.make(
            ["x", "y", "z"], [("y", "z")], boxes=[r],
            valuation={"p": {"y", "z"}, "q": {"z"}})
    if name in ("spines", "porcupine", "porcupine_trimmed", "omega_chain"):
        if len(params) != 1:
            raise ModelFormatError(f"{name} takes exactly one parameter")
        k = params[0]
        if k < 1:
            raise ModelFormatError(f"{name} needs a positive parameter")
        states, pairs = _example_size(name, k)
        if max(states, pairs) > MAX_EXAMPLE_SIZE:
            raise ModelFormatError(
                f"{name}({k}) would have {states} states and {pairs} order "
                f"pairs; examples stop at {MAX_EXAMPLE_SIZE} of each")
    if name == "spines":
        states = ["r"]
        edges = []
        for j in range(1, k + 1):
            prev = "r"
            for i in range(1, j + 1):
                s = f"s{j}_{i}"
                states.append(s)
                edges.append((prev, s))
                prev = s
        return Model.make(states, [], boxes=[edges], valuation={})
    if name in ("porcupine", "porcupine_trimmed"):
        top = k + 1 if name == "porcupine" else k
        states = ["x"]
        order = []
        heights: dict[str, int] = {}
        for n in range(1, top + 1):
            chain = [f"b{n}k{i}" for i in range(n)]
            states.extend(chain)
            for a, b in zip(chain, chain[1:]):
                order.append((a, b))
            order.append((chain[-1], "x"))
            for i, s in enumerate(chain):
                heights[s] = i
        valuation: dict[str, set[str]] = {"q": {"x"}}
        for i in range(k + 1):
            valuation[f"p{i}"] = {s for s, h in heights.items() if i <= h} | {"x"}
        return Model.make(states, order, valuation=valuation)
    if name == "omega_chain":
        states = [str(i) for i in range(k + 1)] + ["inf"]
        order = [(str(i), str(i + 1)) for i in range(k)] + [(str(k), "inf")]
        valuation = {
            f"p{i}": {str(j) for j in range(i, k + 1)} | {"inf"}
            for i in range(k + 1)
        }
        return Model.make(states, order, valuation=valuation)
    raise ModelFormatError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# JSON format


_MODEL_KEYS = {"states", "leq_gen", "boxes", "diamonds", "valuation", "flavor"}


def model_from_dict(data) -> Model:
    """Strictly parse the JSON model object.  The order is given by
    generators under "leq_gen" and closed into a preorder here.

    Each relation is read in one pass: every pair is checked as it is
    OR-ed into its bit row over the sorted states, and the rows go to
    the model as they are.  Every error is the one Model.make would
    raise on the same lists, in the same order: the shape of each
    value first, then the states, then the first pair that names an
    unknown state (leq_gen, then boxes, then diamonds), then the
    flavor's relation counts and the valuation."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ModelFormatError(f"unknown model key {sorted(unknown)[0]!r}")
    for key in ("states", "leq_gen", "valuation"):
        if key not in data:
            raise ModelFormatError(f"model is missing {key!r}")
    states = data["states"]
    if (not isinstance(states, list)
            or not all(isinstance(s, str) for s in states)):
        raise ModelFormatError("states must be a list of strings")
    names = tuple(sorted(states))
    # duplicate names are reported only after the rows are read, so
    # the rows are over the distinct names
    index = {x: i for i, x in enumerate(dict.fromkeys(names))}
    bit = {x: 1 << i for x, i in index.items()}
    faults: list[str] = []  # the first pair naming an unknown state

    def rows(value, what: str, name: str) -> list[int]:
        # A name found in index is a string, since index holds only
        # strings and no other value JSON can hold equals one, so only
        # a pair that misses index has its names' types checked.
        if not isinstance(value, list):
            raise ModelFormatError(f"{what} must be a list of pairs")
        out = [0] * len(index)
        for item in value:
            if isinstance(item, list) and len(item) == 2:
                a, b = item
                try:
                    out[index[a]] |= bit[b]
                    continue
                except (KeyError, TypeError):
                    if isinstance(a, str) and isinstance(b, str):
                        if not faults:
                            faults.append(f"{name} mentions unknown state "
                                          f"in ({a}, {b})")
                        continue
            raise ModelFormatError(f"{what} must contain [from, to] pairs")
        return out

    leq = rows(data["leq_gen"], "leq_gen", "leq")
    rels = {}
    for key, name in (("boxes", "box"), ("diamonds", "diamond")):
        value = data.get(key, [])
        if not isinstance(value, list):
            raise ModelFormatError(f"{key} must be a list of relations")
        rels[key] = [rows(r, f"{key}[{i}]", f"{name} relation {i + 1}")
                     for i, r in enumerate(value)]
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise ModelFormatError("valuation must be an object")
    for atom, xs in valuation.items():
        if not isinstance(xs, list) or not all(isinstance(s, str) for s in xs):
            raise ModelFormatError(f"valuation of {atom!r} must list states")
    flavor = data.get("flavor", STANDARD)
    if not isinstance(flavor, str):
        raise ModelFormatError("flavor must be a string")
    _check_states(states)
    if faults:
        raise ModelFormatError(faults[0])
    _close_order(leq)
    return Model._from_rows(names, index, leq, rels["boxes"],
                            rels["diamonds"], valuation, flavor)


def model_to_dict(m: Model) -> dict:
    states = m.states

    def pairs(rows):  # in sorted order, since the states are
        return [[a, b] for a, row in zip(states, rows)
                for b in rel._names(states, row)]

    return {
        "states": list(m.states),
        "leq_gen": pairs(m._leq_rows),
        "boxes": [pairs(r) for r in m._box_rows],
        "diamonds": [pairs(s) for s in m._dia_rows],
        "valuation": {atom: sorted(xs) for atom, xs in m.valuation.items()},
        "flavor": m.flavor,
    }


def read_json(source: str, text: str | None = None):
    """The JSON value in text, or, with no text, in the file at path
    source.  Malformed JSON raises json.JSONDecodeError and a missing
    or unreadable file OSError.  Bytes that are not UTF-8, nesting too
    deep for the decoder, a number too long to convert and a NUL in
    the path raise ModelFormatError, naming the inline source as given
    and a file by its quoted path."""
    try:
        if text is not None:
            return json.loads(text)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        name = source if text is not None else repr(source)
        raise ModelFormatError(f"{name}: not readable as JSON ({exc})") \
            from None


def load_model(path: str) -> Model:
    try:
        data = read_json(path)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_dict(data)


def model_to_json(m: Model) -> str:
    return _dumps(model_to_dict(m))


def _dumps(obj) -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) + "\n",
    the format of model files and of every CLI output.

    An indent makes json.dumps fall back from its C encoder to a pure
    Python one.  This writer keeps the escaping in C
    (encode_basestring_ascii) and writes a list of like members a
    column at a time (_members).  A _Rows list holds members already
    written: the CLI writes its long lists of removals and witnesses
    row by row, each row one % of a template that _row_template builds
    with this writer's own layout.  The pieces go into one flat list
    (_write) that is joined once, so the text is held once, beside its
    rows, and not copied again at each level that encloses them.  A
    dict key that is not a str raises TypeError, where json.dumps would
    convert some."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


class _Rows(list):
    """Members of a JSON list already written as text, each starting on
    the line `newline` (the line break and indent of its first line),
    which _encode joins as they stand."""

    __slots__ = ("newline",)

    def __init__(self, rows: Iterable[str], newline: str):
        super().__init__(rows)
        self.newline = newline


# A cell of a placeholder row: _encode writes it as "\u0000", which no
# other text of a template holds as long as its keys and fixed values
# hold no NUL.
_CELL = "\x00"


def _row_template(row: dict, newline: str) -> str:
    """_encode(row, newline) as a %-template: a %s for each _CELL value,
    in the order _encode writes them (sorted keys, list members in
    order), with every other % doubled, so keys and fixed values come
    out as they stand.  The cells a template is filled with go in
    untouched: strings already quoted, or plain ints."""
    return (_encode(row, newline).replace("%", "%%")
            .replace(_quote(_CELL), "%s"))


def _encode(value, newline: str) -> str:
    """value as json.dumps writes it at indent 2, where newline is the
    line break plus the indent of the line value starts on."""
    out: list[str] = []
    _write(value, newline, out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the pieces of _encode(value, newline) to out."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, _quote(key), ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if kind is _Rows:
            if value.newline != inner:
                raise ValueError("rows written for another indent")
            members = value
        else:
            members = _members(value, inner)
        # the members with a separator between each two, placed in C
        pieces = ["," + inner] * (2 * len(members) - 1)
        pieces[::2] = members
        out.append("[" + inner)
        out += pieces
        out.append(newline + "]")
    else:
        # floats and the rest are scalars to json.dumps, which writes a
        # scalar the same at every indent
        out.append(json.dumps(value))


def _members(values, newline: str) -> list[str]:
    """_encode of each member of a nonempty list, with fast paths for
    the shapes the CLI writes: all strings, all plain ints, all
    nonempty lists of strings (state pairs), and dicts that all have
    the same keys (violations, sample disagreements), which are written
    a column at a time."""
    kind = type(values[0])
    if kind is str:
        try:
            return list(map(_quote, values))
        except TypeError:  # not every member is a string
            pass
    elif kind is int:
        if all(type(v) is int for v in values):
            return list(map(int.__repr__, values))
    elif kind is list or kind is tuple:
        if all((type(v) is list or type(v) is tuple) and v for v in values):
            inner = newline + "  "
            sep = "," + inner
            try:
                return ["[" + inner + sep.join(map(_quote, v)) + newline
                        + "]" for v in values]
            except TypeError:  # not every member of a row is a string
                pass
    elif kind is dict and values[0]:
        keys = values[0].keys()
        if all(type(d) is dict and d.keys() == keys for d in values):
            order = sorted(keys)
            inner = newline + "  "
            row = "{" + ",".join(
                [inner + _quote(key).replace("%", "%%") + ": %s"
                 for key in order]) + newline + "}"
            columns = [_members([d[key] for d in values], inner)
                       for key in order]
            return [row % cells for cells in zip(*columns)]
    return [_encode(v, newline) for v in values]
