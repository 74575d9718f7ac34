"""The refinement trace held as rows of ints.

greatest_bisimulation stores each removal as five ints over the places
of its kernel and builds no Removal object until trace.removals is
read.  The decoded trace must be the trace a list of Removal objects
gives, the bisim verb must write the same removals, synthesize must
replay a trace built from Removal objects as it replays its own, and
the atom signatures the rows start from must match a plain per-place
reading of the valuation, on short masks and long ones.
"""

import gc
import json
import random

import pytest

from kripkit import Fragment, build_example, semantics
from kripkit.bisim import (RefinementTrace, Removal, _signatures,
                           conditions_for, greatest_bisimulation)
from kripkit.cli import main
from kripkit.model import model_to_json
from kripkit.sampling import random_model

# One fragment per flavor, the rows of test_bisim's soundness test.
ROWS = [
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("tense", Fragment("biint", 1, 1, True), dict()),
    ("h", Fragment("biint", 1, 1, True), dict()),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
    ("fs", Fragment("int", 1, 1), dict()),
    ("gpt", Fragment("biint", 1, 1, True), dict()),
]

GALLERY = [
    ("wedge", (), "wedge_strict", (), Fragment("biint", 1, 0)),
    ("spines", (3,), "spines", (4,), Fragment("int", 1, 0)),
    ("spines", (3,), "spines", (4,), Fragment("int", 0, 0)),
    ("omega_chain", (3,), "omega_chain", (4,), Fragment("biint", 0, 0)),
    ("porcupine", (2,), "porcupine_trimmed", (2,), Fragment("biint", 0, 0)),
]


def _removal_count() -> int:
    gc.collect()
    return sum(isinstance(o, Removal) for o in gc.get_objects())


def test_the_refinement_builds_no_removal_until_one_is_read():
    m, m2 = build_example("spines", (9,)), build_example("spines", (10,))
    before = _removal_count()
    _, trace = greatest_bisimulation(
        m, m2, conditions_for(Fragment("int", 1, 0), m.flavor))
    assert _removal_count() == before
    removals = trace.removals
    assert _removal_count() == before + len(removals)
    assert trace.removals is removals  # decoded once


def assert_decodes_like_removals(trace):
    rebuilt = RefinementTrace(trace.removals, trace.rounds)
    assert trace == rebuilt and rebuilt == trace
    assert hash(trace) == hash(rebuilt)
    assert repr(trace) == repr(rebuilt)
    assert repr(trace).startswith("RefinementTrace(removals=(Removal(")
    assert trace.by_pair() == rebuilt.by_pair()
    for stage in range(-1, trace.rounds + 2):
        assert trace.at_stage(stage) == rebuilt.at_stage(stage)
    assert RefinementTrace(trace.removals[:-1], trace.rounds) != trace
    assert RefinementTrace(trace.removals, trace.rounds + 1) != trace


def test_the_decoded_trace_is_the_trace_of_its_removals():
    m, m2 = build_example("spines", (9,)), build_example("spines", (10,))
    _, trace = greatest_bisimulation(
        m, m2, conditions_for(Fragment("int", 1, 0), m.flavor))
    assert len(trace.removals) > 1000
    assert_decodes_like_removals(trace)
    with pytest.raises(AttributeError):
        trace.rounds = 0


def test_an_encoded_trace_decodes_to_its_removals():
    # synthesize encodes a trace built from Removal objects into rows;
    # decoded again, the rows give back the same removals
    atom_rows = 0
    for flavor, frag, kw in ROWS:
        for i in range(6):
            rng = random.Random(91_000 + i)
            m = random_model(rng, flavor, n_states=3 + i, strict=True, **kw)
            m2 = random_model(rng, flavor, n_states=4 + i % 3, strict=True,
                              **kw)
            conditions = conditions_for(frag, flavor)
            _, trace = greatest_bisimulation(m, m2, conditions)
            clauses = trace._legend[2]
            built = RefinementTrace(trace.removals, trace.rounds)
            rows, atoms = built._rows_on(m, m2, clauses)
            again = RefinementTrace._of_rows(
                rows, (m.states + m2.states, atoms, clauses), trace.rounds)
            assert again == trace
            assert_decodes_like_removals(again)
            assert trace._rows_on(m, m2, clauses)[0] is trace._rows
            atom_rows += len(trace.at_stage(0))
    assert atom_rows > 100


def _bisim_output(tmp_path, capsys, m, m2, frag):
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(model_to_json(m))
    right.write_text(model_to_json(m2))
    argv = ["bisim", "--left", str(left), "--right", str(right),
            "--fragment", frag.base, "--boxes", str(frag.n_boxes),
            "--diamonds", str(frag.m_diamonds)]
    if frag.tense:
        argv.append("--tense")
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def assert_bisim_writes_the_decoded_removals(tmp_path, capsys, m, m2, frag):
    out = _bisim_output(tmp_path, capsys, m, m2, frag)
    _, trace = greatest_bisimulation(m, m2, conditions_for(frag, m.flavor))
    want = [{"pair": r.pair, "stage": r.stage, "clause": r.clause,
             "side": r.side, "transition": r.transition}
            for r in trace.removals]
    assert out["removed"] == json.loads(json.dumps(want))
    assert out["rounds"] == trace.rounds


@pytest.mark.parametrize("pair", GALLERY,
                         ids=[f"{p[0]}{p[1]}-{p[2]}{p[3]}-{p[4].base}"
                              for p in GALLERY])
def test_bisim_verb_writes_the_decoded_removals_on_the_gallery(
        pair, tmp_path, capsys):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    assert_bisim_writes_the_decoded_removals(tmp_path, capsys, m, m2, frag)
    assert_bisim_writes_the_decoded_removals(tmp_path, capsys, m2, m, frag)


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_bisim_verb_writes_the_decoded_removals_on_random_pairs(
        row, tmp_path, capsys):
    flavor, frag, kw = row
    for i in range(6):
        rng = random.Random(92_000 + i)
        m = random_model(rng, flavor, n_states=2 + i, **kw)
        m2 = m if i == 3 else random_model(rng, flavor, n_states=5 - i % 3,
                                           **kw)
        assert_bisim_writes_the_decoded_removals(tmp_path, capsys, m, m2,
                                                 frag)


def reference_signatures(models):
    """Each place's atom signature, read state by state off the
    valuations."""
    atoms = sorted({a for m in models for a in m.valuation})
    sig = [sum(1 << k for k, a in enumerate(atoms)
               if x in m.valuation.get(a, ()))
           for m in models for x in m.states]
    return atoms, sig


@pytest.mark.parametrize("n_states", [1, 4, 31, 33, 300])
def test_signatures_match_a_per_place_reading(n_states):
    rng = random.Random(93_000 + n_states)
    m = random_model(rng, "standard", n_states=n_states,
                     atoms=("p", "q", "r"))
    m2 = random_model(rng, "standard", n_states=n_states, atoms=("q", "s"))
    masks = semantics._Kernel([m, m2]).atoms()[1]
    if n_states == 300:
        # dense masks long enough to be read off their digits
        assert all(mask.bit_count() > 100 for mask in masks)
    for models in ([m], [m, m2], [m2, m]):
        assert (_signatures(semantics._Kernel(models))
                == reference_signatures(models))
