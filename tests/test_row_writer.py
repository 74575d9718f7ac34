"""Differential test of the row writer against the dict path it replaced.

The bisim, equiv and hm-check verbs write their removed and witnesses
lists row by row: each row is one % of a template that
model._row_template lays out, filled with cells quoted once.  Before,
the verbs built one dict per removal (from RefinementTrace._fields)
and per witness (Witness.to_dict) and handed them to model._dumps.
The reference functions below keep that dict path; every output must
be byte-identical to it.
"""

import contextlib
import io
import json
import random

import pytest

from kripkit import Fragment, build_example, sampling
from kripkit import cli
from kripkit.bisim import conditions_for, greatest_bisimulation
from kripkit.distinguish import hennessy_milner_check, synthesize
from kripkit.errors import ToolError
from kripkit.model import (_CELL, _dumps, _encode, _row_template, _Rows,
                           load_model, model_from_dict, model_to_json)


def reference_bisim(left, right, frag):
    conditions = conditions_for(frag, left.flavor)
    pairs, trace = greatest_bisimulation(left, right, conditions)
    return _dumps({"pairs": sorted(pairs), "rounds": trace.rounds,
                   "removed": [{"pair": pair, "stage": stage,
                                "clause": clause, "side": side,
                                "transition": transition}
                               for pair, stage, clause, side, transition
                               in trace._fields()]})


def reference_equiv(left, right, frag):
    pairs, witnesses = synthesize(left, right, frag)
    return _dumps({"pairs": sorted(pairs),
                   "witnesses": [w.to_dict() for w in witnesses]})


def reference_hm_check(left, right, frag):
    report = hennessy_milner_check(left, right, frag)
    return _dumps({"passed": report.passed,
                   "fixpoint": sorted(report.fixpoint),
                   "oracle": sorted(report.oracle),
                   "oracle_exact": report.oracle_exact,
                   "witnesses": [w.to_dict() for w in report.witnesses],
                   "problems": list(report.problems)})


REFERENCES = {"bisim": reference_bisim, "equiv": reference_equiv,
              "hm-check": reference_hm_check}


def _flags(frag: Fragment) -> list[str]:
    return (["--fragment", frag.base, "--boxes", str(frag.n_boxes),
             "--diamonds", str(frag.m_diamonds)] + ["--tense"] * frag.tense)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def assert_rows_match_the_dict_path(tmp_path, m, m2, frag):
    """Every verb's bytes against its reference; returns the parsed
    outputs of the verbs that printed, by verb.  A verb whose reference
    raises (synthesis over modal clauses on a model that is not
    strictly condensed) must print nothing."""
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(model_to_json(m))
    right.write_text(model_to_json(m2))
    # the verbs read the models back from their files
    m, m2 = load_model(str(left)), load_model(str(right))
    outputs = {}
    for verb, reference in REFERENCES.items():
        out = _stdout([verb, "--left", str(left), "--right", str(right)]
                      + _flags(frag))
        try:
            want = reference(m, m2, frag)
        except ToolError:
            want = ""
        assert out == want, verb
        if out:
            outputs[verb] = json.loads(out)
    return outputs


# One fragment per flavor, with random_model's arguments.
FLAVOR_ROWS = [
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("fs", Fragment("int", 1, 1), {}),
    ("gpt", Fragment("biint", 1, 1, True), {}),
    ("tense", Fragment("biint", 1, 1, True), {}),
    ("h", Fragment("biint", 1, 1, True), {}),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
]


@pytest.mark.parametrize("row", FLAVOR_ROWS, ids=[r[0] for r in FLAVOR_ROWS])
def test_random_pairs_write_the_bytes_of_the_dict_path(row, tmp_path):
    flavor, frag, kw = row
    removed = witnesses = 0
    for i in range(5):
        rng = random.Random(94_000 + i)
        m = sampling.random_model(rng, flavor, n_states=2 + i, strict=True,
                                  **kw)
        m2 = sampling.random_model(rng, flavor, n_states=3 + i % 3,
                                   strict=True, **kw)
        out = assert_rows_match_the_dict_path(tmp_path, m, m2, frag)
        removed += len(out["bisim"]["removed"])
        witnesses += len(out["equiv"]["witnesses"])
    assert removed and witnesses


GALLERY = [
    ("wedge_strict", (), "wedge_strict", (), Fragment("biint", 1, 0)),
    ("spines", (3,), "spines", (4,), Fragment("int", 1, 0)),
    ("omega_chain", (3,), "omega_chain", (4,), Fragment("biint", 0, 0)),
    ("porcupine", (2,), "porcupine_trimmed", (2,), Fragment("biint", 0, 0)),
    ("porcupine", (3,), "porcupine_trimmed", (3,), Fragment("biint", 0, 0)),
]


@pytest.mark.parametrize("pair", GALLERY,
                         ids=[f"{p[0]}{p[1]}-{p[2]}{p[3]}-{p[4].base}"
                              for p in GALLERY])
def test_gallery_pairs_write_the_bytes_of_the_dict_path(pair, tmp_path):
    name, params, name2, params2, frag = pair
    m, m2 = build_example(name, params), build_example(name2, params2)
    for a, b in ((m, m2), (m2, m)):
        out = assert_rows_match_the_dict_path(tmp_path, a, b, frag)
        assert out["bisim"]["removed"] and out["equiv"]["witnesses"]


def test_porcupine_has_every_kind_of_row(tmp_path):
    # atom rows (one-element transitions, empty side) and check rows
    # on both sides, each written from its own template
    m = build_example("porcupine", (3,))
    m2 = build_example("porcupine_trimmed", (3,))
    out = assert_rows_match_the_dict_path(tmp_path, m, m2,
                                          Fragment("biint"))
    removed = out["bisim"]["removed"]
    assert {(r["side"], len(r["transition"])) for r in removed} == {
        ("", 1), ("left", 2), ("right", 2)}
    assert {w["orientation"] for w in out["equiv"]["witnesses"]} == {
        "left", "right"}


def _renamed(m, names):
    data = json.loads(model_to_json(m))
    data["states"] = [names[s] for s in data["states"]]
    data["leq_gen"] = [[names[a], names[b]] for a, b in data["leq_gen"]]
    data["boxes"] = [[[names[a], names[b]] for a, b in r]
                     for r in data["boxes"]]
    data["valuation"] = {k: [names[s] for s in v]
                         for k, v in data["valuation"].items()}
    return model_from_dict(data)


# The state names of test_cli's escaped wedge: they need escapes, hold
# the % the rows are formatted with, and are not ASCII or lie outside
# the basic plane.
ODD = {"x": "x\"\\é", "y": "y\U0001F600", "z": "z%s\x01"}


def test_escaped_names_write_the_bytes_of_the_dict_path(tmp_path):
    wedge = _renamed(build_example("wedge"), ODD)
    strict = _renamed(build_example("wedge_strict"), ODD)
    # without a box no clause needs strict condensation
    out = assert_rows_match_the_dict_path(tmp_path, wedge, strict,
                                          Fragment("biint"))
    assert len(out) == 3
    assert out["bisim"]["removed"] and out["equiv"]["witnesses"]
    names = {x for r in out["bisim"]["removed"] for x in r["pair"]}
    assert names == set(ODD.values())
    out = assert_rows_match_the_dict_path(tmp_path, strict, strict,
                                          Fragment("biint", 1, 0))
    assert len(out) == 3 and out["hm-check"]["witnesses"]
    # the escaped wedge of test_cli, whose equiv and hm-check refuse it
    out = assert_rows_match_the_dict_path(tmp_path, wedge, wedge,
                                          Fragment("biint", 1, 0))
    assert list(out) == ["bisim"] and out["bisim"]["removed"]


def test_a_bisimilar_pair_writes_empty_lists(tmp_path):
    one = model_from_dict({"states": ["s%s"], "leq_gen": [], "boxes": [[]],
                           "valuation": {"p": ["s%s"]}})
    two = model_from_dict({"states": ["\U0001F600", "\"\\"], "leq_gen": [],
                           "boxes": [[]],
                           "valuation": {"p": ["\U0001F600", "\"\\"]}})
    out = assert_rows_match_the_dict_path(tmp_path, one, two,
                                          Fragment("biint", 1, 0))
    assert len(out["bisim"]["pairs"]) == 2
    assert out["bisim"]["removed"] == []
    assert out["equiv"]["witnesses"] == []
    assert out["hm-check"]["witnesses"] == []
    assert out["hm-check"]["passed"] is True


def test_a_template_doubles_every_percent_but_its_cells():
    row = {"a%s": _CELL, "b": ["%d", _CELL], "c%": "%%", "d": [_CELL]}
    template = _row_template(row, "\n    ")
    cells = ('"%s"', "7", '"\\u0000"')
    filled = {"a%s": "%s", "b": ["%d", 7], "c%": "%%", "d": ["\x00"]}
    assert template % cells == _encode(filled, "\n    ")


def test_rows_are_joined_only_at_their_own_indent():
    rows = _Rows(['"a"', "1"], "\n    ")
    assert _dumps({"k": rows}) == _dumps({"k": ["a", 1]})
    assert _dumps({"k": _Rows([], "\n    ")}) == _dumps({"k": []})
    with pytest.raises(ValueError):
        _dumps(rows)
