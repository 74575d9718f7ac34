"""Differential test of the trace replay against the one it replaced.

reference_synthesize below keeps verbatim, but for its name, the
synthesize that read each removal's cover out of resolved_tasks' maps
of frozensets by name, sorted, and kept the witnesses in a dict keyed
by pair names.  kripkit's synthesize reads the covers off the
successor masks and keeps the witnesses in slots by state numbers; it
must return the same fixpoint and the same witnesses (pair, formula
object, orientation, stage, in order), raise the same error, and on a
trace that lost a removal name the same missing pair.
"""

import random
import sys

import pytest

from kripkit import Fragment, build_example
from kripkit import bisim, distinguish, semantics
from kripkit.bisim import (_check_counts, conditions_for,
                           greatest_bisimulation)
from kripkit.distinguish import (_EMPTY, _MODAL_SHAPE, Witness,
                                 _check_witnessable, _dedup_and_sort, _fold)
from kripkit.errors import InternalCheckError, PreconditionError, ToolError
from kripkit.formula import And, Atom, Bot, Formula, Imp, Or, Sub, Top
from kripkit.model import Model, require_valid
from kripkit.sampling import random_model
from test_refinement_reference import resolved_tasks


def reference_synthesize(m: Model, m2: Model, frag: Fragment):
    """Compute the greatest bisimulation for the fragment's clause set
    and a verified distinguishing formula for every discarded pair.

    Returns (fixpoint relation, list of Witness in removal order).
    """
    if m.flavor != m2.flavor:
        raise PreconditionError(
            f"models have different flavors: {m.flavor!r} vs {m2.flavor!r}")
    # A clause set's shapes, and the errors conditions_for raises,
    # depend on each count only up to 2, so witnessability is checked on
    # the clause set of a capped fragment; the counts are checked against
    # the models before a larger clause set is built, one index per count.
    capped = Fragment(frag.base, min(frag.n_boxes, 2),
                      min(frag.m_diamonds, 2), frag.tense)
    conditions = conditions_for(capped, m.flavor)
    _check_witnessable(conditions, frag)
    _check_counts(frag, m, m2)
    if capped != frag:
        conditions = conditions_for(frag, m.flavor)
    require_valid(m, "synthesize")
    require_valid(m2, "synthesize")
    modal_clauses = (conditions.boxes or conditions.diamonds
                     or conditions.tdias or conditions.tboxes)
    if modal_clauses:
        for side, model in (("left", m), ("right", m2)):
            if not model.validate().strictly_condensed:
                raise PreconditionError(
                    f"{side} model is not strictly condensed; witness "
                    "synthesis over modal clauses needs that (strictify "
                    "the model first)")

    fixpoint, trace = greatest_bisimulation(m, m2, conditions)
    tasks = {t.clause: t for t in resolved_tasks(conditions, m, m2)}
    by_pair: dict[tuple[str, str], Witness] = {}
    out: list[Witness] = []
    # (clause, owner, state) -> the other side's cover of state, sorted
    covers: dict[tuple[str, str, str], list[str]] = {}

    for removal in trace.removals:
        x, x2 = removal.pair
        if removal.clause == "atoms":
            atom = removal.transition[0]
            formula: Formula = Atom(atom)
            orientation = ("left" if x in m.valuation.get(atom, _EMPTY)
                           else "right")
        else:
            task = tasks[removal.clause]
            shape, index = task.shape, task.index
            owner = removal.side
            t = removal.transition[1]
            key = (removal.clause, owner, x2 if owner == "left" else x)
            cover = covers.get(key)
            if cover is None:
                succ = task.right if owner == "left" else task.left
                cover = covers[key] = sorted(succ.get(key[2], _EMPTY))
            if owner == "left":
                earlier = [(t, c) for c in cover]
            else:
                earlier = [(c, t) for c in cover]
            true_at_t: list[Formula] = []
            true_at_cover: list[Formula] = []
            for pair in earlier:
                w = by_pair.get(pair)
                if w is None:
                    raise InternalCheckError(
                        f"trace replay hit pair {pair} with no witness "
                        f"while handling {removal.pair}")
                if w.orientation == owner:
                    true_at_t.append(w.formula)
                else:
                    true_at_cover.append(w.formula)
            phi = _fold(And, _dedup_and_sort(true_at_t, m, m2), Top())
            psi = _fold(Or, _dedup_and_sort(true_at_cover, m, m2), Bot())
            if shape in ("imp", "box", "tbox"):
                core = psi if isinstance(phi, Top) else Imp(phi, psi)
                orientation = "right" if owner == "left" else "left"
            else:
                core = phi if isinstance(psi, Bot) else Sub(phi, psi)
                orientation = owner
            formula = (_MODAL_SHAPE[shape](index, core)
                       if shape in _MODAL_SHAPE else core)

        holds_left = x in semantics.truth_set(formula, m)
        holds_right = x2 in semantics.truth_set(formula, m2)
        want = (True, False) if orientation == "left" else (False, True)
        if (holds_left, holds_right) != want:
            raise InternalCheckError(
                f"synthesized witness for {removal.pair} does not separate "
                f"(clause {removal.clause}): {formula}")
        witness = Witness(removal.pair, formula, orientation, removal.stage)
        by_pair[removal.pair] = witness
        out.append(witness)
    return fixpoint, out


def _outcome(fn, *args):
    """A call's result, or the type and text of the ToolError it
    raised, so that refusals are compared too."""
    try:
        return ("ok", fn(*args))
    except ToolError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_reference(m, m2, frag):
    got = _outcome(distinguish.synthesize, m, m2, frag)
    want = _outcome(reference_synthesize, m, m2, frag)
    assert got == want
    if got[0] == "ok":
        # the same formula object, not only an equal text
        assert all(a.formula is b.formula
                   for a, b in zip(got[1][1], want[1][1]))
    return got


@pytest.mark.parametrize("k", range(2, 10))
def test_replay_matches_reference_on_spines(k):
    m, m2 = build_example("spines", (k,)), build_example("spines", (k + 1,))
    for left, right in ((m, m2), (m2, m)):
        assert assert_same_as_reference(left, right,
                                        Fragment("int", 1, 0))[0] == "ok"


@pytest.mark.parametrize("n", range(1, 7))
def test_replay_matches_reference_on_porcupines(n):
    m = build_example("porcupine", (n,))
    m2 = build_example("porcupine_trimmed", (n,))
    for base in ("int", "intdual", "biint"):
        for left, right in ((m, m2), (m2, m)):
            assert assert_same_as_reference(left, right,
                                            Fragment(base, 0, 0))[0] == "ok"


# The six fragment rows of acceptance criterion c04.
ROWS = [
    ("int", "standard", Fragment("int", 1, 0),
     dict(n_boxes=1, n_diamonds=0)),
    ("intdual", "standard", Fragment("intdual", 0, 1),
     dict(n_boxes=0, n_diamonds=1)),
    ("biint", "standard", Fragment("biint", 1, 1),
     dict(n_boxes=1, n_diamonds=1)),
    ("tense", "tense", Fragment("biint", 1, 1, True), dict()),
    ("h", "h", Fragment("biint", 1, 1, True), dict()),
    ("ek", "ek", Fragment("int", 2, 0), dict(n_boxes=2)),
]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_replay_matches_reference_on_random_pairs(row):
    _, flavor, frag, kw = row
    for i in range(24):
        rng = random.Random(81_000 + i)
        m = random_model(rng, flavor, n_states=3 + i % 6, strict=True, **kw)
        m2 = (m if i % 6 == 5 else
              random_model(rng, flavor, n_states=3 + (5 * i) % 6,
                           strict=True, **kw))
        assert assert_same_as_reference(m, m2, frag)[0] == "ok"


GALLERY = [
    ("wedge", (), "wedge_strict", (), Fragment("biint", 0, 0)),
    ("wedge", (), "wedge_strict", (), Fragment("biint", 1, 0)),
    ("wedge_strict", (), "wedge_strict", (), Fragment("biint", 1, 0)),
    ("spines", (1,), "spines", (2,), Fragment("int", 1, 0)),
    ("spines", (3,), "spines", (3,), Fragment("int", 1, 0)),
    ("spines", (3,), "spines", (4,), Fragment("intdual", 0, 1)),
    ("omega_chain", (3,), "omega_chain", (4,), Fragment("biint", 0, 0)),
    ("omega_chain", (4,), "omega_chain", (4,), Fragment("int", 0, 0)),
    ("porcupine", (2,), "porcupine", (3,), Fragment("biint", 0, 0)),
]


@pytest.mark.parametrize("pair", GALLERY,
                         ids=[f"{p[0]}{p[1]}-{p[2]}{p[3]}-{p[4].base}"
                              f"{p[4].n_boxes}{p[4].m_diamonds}"
                              for p in GALLERY])
def test_replay_matches_reference_on_the_gallery(pair):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    assert_same_as_reference(m, m2, frag)
    assert_same_as_reference(m2, m, frag)


def _losing(drop):
    """greatest_bisimulation with the removals drop picks left out of
    its trace."""
    def lossy(m, m2, conditions):
        fixpoint, trace = bisim.greatest_bisimulation(m, m2, conditions)
        removals = drop(trace.removals)
        return fixpoint, type(trace)(removals, trace.rounds)
    return lossy


def assert_same_on_a_lossy_trace(m, m2, frag, drop, monkeypatch):
    lossy = _losing(drop)
    with monkeypatch.context() as patch:
        patch.setattr(distinguish, "greatest_bisimulation", lossy)
        patch.setattr(sys.modules[__name__], "greatest_bisimulation", lossy)
        got = _outcome(distinguish.synthesize, m, m2, frag)
        want = _outcome(reference_synthesize, m, m2, frag)
    assert got == want
    return got


def test_replay_names_the_pair_a_lossy_trace_lost(monkeypatch):
    m, m2 = build_example("spines", (1,)), build_example("spines", (2,))
    frag = Fragment("int", 1, 0)
    # ("s1_1", "s2_1") dies at stage 1, and the root pair's stage-2
    # cover reads it
    got = assert_same_on_a_lossy_trace(
        m, m2, frag,
        lambda removals: tuple(r for r in removals
                               if r.pair != ("s1_1", "s2_1")),
        monkeypatch)
    assert got == ("InternalCheckError",
                   "trace replay hit pair ('s1_1', 's2_1') with no witness "
                   "while handling ('r', 'r')")


@pytest.mark.parametrize("k", range(1, 6))
def test_replay_names_the_least_lost_pair_of_a_cover(k, monkeypatch):
    # with the first stages lost, a cover misses several pairs, and
    # the first one in sorted name order is named
    m, m2 = build_example("spines", (k,)), build_example("spines", (k + 1,))
    for left, right in ((m, m2), (m2, m)):
        for stage in range(1, k + 1):
            got = assert_same_on_a_lossy_trace(
                left, right, Fragment("int", 1, 0),
                lambda removals: tuple(r for r in removals
                                       if r.stage > stage),
                monkeypatch)
            assert got[0] == "InternalCheckError"
            assert got[1].startswith("trace replay hit pair")
