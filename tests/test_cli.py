"""Command line round trips.

Each verb is driven through main() with an argv list; one smoke test
exercises the installed console script end to end.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kripkit
from kripkit import Fragment, sampling
from kripkit.cli import main
from kripkit.distinguish import synthesize
from kripkit.errors import PreconditionError
from kripkit.model import (FLAVORS, _dumps, build_example, model_from_dict,
                           model_to_dict, model_to_json)


@pytest.fixture
def wedge_path(tmp_path):
    path = tmp_path / "wedge.json"
    path.write_text(model_to_json(build_example("wedge")))
    return str(path)


@pytest.fixture
def strict_path(tmp_path):
    path = tmp_path / "strict.json"
    path.write_text(model_to_json(build_example("wedge_strict")))
    return str(path)


def spine_paths(tmp_path):
    out = []
    for k in (1, 2):
        path = tmp_path / f"spine{k}.json"
        path.write_text(model_to_json(build_example("spines", (k,))))
        out.append(str(path))
    return out


def run_json(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return json.loads(captured.out)


def test_example_verb(capsys):
    data = run_json(capsys, ["example", "--name", "wedge"])
    assert data["states"] == ["x", "y", "z"]
    assert data["flavor"] == "standard"
    data = run_json(capsys, ["example", "--name", "spines(3)"])
    assert "s3_3" in data["states"]


def test_example_refuses_models_past_the_size_ceiling(capsys):
    assert_one_line_error(capsys, ["example", "--name", "spines(100000000)"],
                          "examples stop at 10000")
    assert_one_line_error(capsys, ["example", "--name", "omega_chain(5000)"],
                          "examples stop at 10000")


def test_example_rejects_garbled_names(capsys):
    assert main(["example", "--name", "spines(two)"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_verb(capsys, wedge_path, tmp_path):
    data = run_json(capsys, ["validate", "--model", wedge_path])
    assert data == {"ok": True, "strictly_condensed": False,
                    "violations": []}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["a", "b"], "leq_gen": [["a", "b"]],
        "valuation": {"p": ["a"]},
    }))
    data = run_json(capsys, ["validate", "--model", str(bad)])
    assert data["ok"] is False
    assert data["violations"] == [
        {"axiom": "valuation-upset", "witness": ["p", "a", "b"]}]


def test_eval_verb(capsys, wedge_path):
    data = run_json(capsys, ["eval", "--model", wedge_path,
                             "--formula", "p -> q"])
    assert data == {"truth_set": ["x", "z"]}


def test_eval_ck_reflexive_flag(capsys, tmp_path):
    path = tmp_path / "ek.json"
    path.write_text(json.dumps({
        "states": ["1", "2", "3"], "leq_gen": [],
        "boxes": [[["1", "2"]], [["2", "3"]]],
        "valuation": {"q": ["3"]}, "flavor": "ek",
    }))
    plain = run_json(capsys, ["eval", "--model", str(path),
                              "--formula", "C q"])
    refl = run_json(capsys, ["eval", "--model", str(path),
                             "--formula", "C q", "--ck-reflexive"])
    assert plain == {"truth_set": ["2", "3"]}
    assert refl == {"truth_set": ["3"]}


def test_bisim_verb(capsys, wedge_path, strict_path):
    data = run_json(capsys, ["bisim", "--left", wedge_path,
                             "--right", strict_path,
                             "--fragment", "biint", "--boxes", "1"])
    assert data["pairs"] == [["y", "y"], ["z", "z"]]
    assert data["rounds"] == 1
    last = data["removed"][-1]
    assert last == {"pair": ["x", "x"], "stage": 1, "clause": "box1_zag",
                    "side": "right", "transition": ["x", "z"]}


def test_bisim_seeded_sample(capsys, wedge_path, strict_path):
    argv = ["bisim", "--left", wedge_path, "--right", strict_path,
            "--fragment", "biint", "--boxes", "1"]
    data = run_json(capsys, argv + ["--seed", "7", "--depth", "2"])
    assert data["sample"] == {"formulas": 50, "disagreements": []}
    assert main(argv + ["--seed", "7"]) == 1
    assert "--depth" in capsys.readouterr().err


def test_flavor_flag_reinterprets_models(capsys, wedge_path):
    # the standard reading has no clause for C, the ek reading does
    assert main(["eval", "--model", wedge_path, "--formula", "C p"]) == 1
    assert "does not interpret" in capsys.readouterr().err
    data = run_json(capsys, ["eval", "--model", wedge_path,
                             "--flavor", "ek", "--formula", "C p"])
    assert data["truth_set"] == ["x", "y", "z"]
    # the same frame breaks the fs coherence axiom
    data = run_json(capsys, ["validate", "--model", wedge_path,
                             "--flavor", "fs"])
    assert data["ok"] is False
    assert data["violations"][0]["axiom"] == "fs-forward-coherence"


def test_equiv_verb(capsys, tmp_path):
    left, right = spine_paths(tmp_path)
    data = run_json(capsys, ["equiv", "--left", left, "--right", right,
                             "--fragment", "int", "--boxes", "1"])
    assert data["pairs"] == [["r", "s2_1"], ["s1_1", "s1_1"],
                             ["s1_1", "s2_2"]]
    root = [w for w in data["witnesses"] if w["pair"] == ["r", "r"]]
    assert root == [{"pair": ["r", "r"], "formula": "[]1 []1 F",
                     "orientation": "left", "stage": 2}]


def test_oracle_verb(capsys, wedge_path, strict_path):
    data = run_json(capsys, ["oracle", "--left", wedge_path,
                             "--right", strict_path,
                             "--fragment", "biint", "--boxes", "1"])
    assert data == {"pairs": [["x", "x"], ["y", "y"], ["z", "z"]],
                    "exact": True}
    data = run_json(capsys, ["oracle", "--left", wedge_path,
                             "--right", strict_path,
                             "--fragment", "biint", "--boxes", "1",
                             "--budget", "0"])
    assert data["exact"] is False


def test_hm_check_exit_codes(capsys, tmp_path):
    left, right = spine_paths(tmp_path)
    base = ["hm-check", "--left", left, "--right", right,
            "--fragment", "int", "--boxes", "1"]
    data = run_json(capsys, base)
    assert data["passed"] is True and data["problems"] == []
    data = run_json(capsys, base + ["--budget", "0"], expect=1)
    assert data["passed"] is False
    assert any("budget" in p for p in data["problems"])


def assert_one_line_error(capsys, argv, needle):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and needle in captured.err
    assert captured.err.count("\n") == 1


def test_negative_budgets_are_rejected(capsys, wedge_path, strict_path):
    pair = ["--left", wedge_path, "--right", strict_path,
            "--fragment", "biint"]
    assert_one_line_error(capsys, ["oracle"] + pair + ["--budget", "-1"],
                          "budget")
    assert_one_line_error(capsys, ["hm-check"] + pair + ["--budget", "-3"],
                          "budget")


def test_bisim_rejects_a_negative_depth(capsys, wedge_path, strict_path):
    assert_one_line_error(
        capsys, ["bisim", "--left", wedge_path, "--right", strict_path,
                 "--fragment", "biint", "--seed", "1", "--depth", "-1"],
        "--depth")


def test_bisim_rejects_a_depth_above_the_ceiling(capsys, wedge_path,
                                                 strict_path):
    # sampled formulas grow exponentially with depth; 3000 used to end
    # in a RecursionError and 300 to run for minutes
    for depth in ("21", "3000"):
        assert_one_line_error(
            capsys, ["bisim", "--left", wedge_path, "--right", strict_path,
                     "--fragment", "int", "--boxes", "1", "--seed", "1",
                     "--depth", depth],
            f"--depth must be <= 20, got {depth}")
    data = run_json(capsys, ["bisim", "--left", wedge_path, "--right",
                             strict_path, "--fragment", "int", "--seed", "1",
                             "--depth", "20"])
    assert data["sample"]["formulas"] == 50


def test_undecodable_and_over_nested_json_are_one_line_errors(
        capsys, tmp_path, wedge_path):
    # each of these used to end in UnicodeDecodeError or RecursionError
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path, needle in ((garbled, "can't decode byte 0xff"),
                         (deep, "maximum recursion depth")):
        assert_one_line_error(capsys, ["validate", "--model", str(path)],
                              needle)
        assert_one_line_error(
            capsys, ["descriptive-check", "--model", wedge_path,
                     "--algebra", str(path)], needle)
    assert_one_line_error(
        capsys, ["descriptive-check", "--model", wedge_path,
                 "--algebra", "[" * 100000], "--algebra: not readable")
    assert_one_line_error(
        capsys, ["closure", "--model", wedge_path,
                 "--generators", "[" * 100000], "--generators: not readable")
    assert_one_line_error(
        capsys, ["closure", "--model", wedge_path,
                 "--generators", "1" * 5000], "--generators: not readable")
    assert_one_line_error(
        capsys, ["descriptive-check", "--model", wedge_path,
                 "--algebra", "a\n\x00"], "null byte")


def test_quotient_verb(capsys, tmp_path):
    _, spine2 = spine_paths(tmp_path)
    data = run_json(capsys, ["quotient", "--model", spine2,
                             "--fragment", "int", "--boxes", "1"])
    assert data["map"] == {"r": "r", "s1_1": "s1_1", "s2_1": "s2_1",
                           "s2_2": "s1_1"}
    assert data["model"]["states"] == ["r", "s1_1", "s2_1"]


def test_strictify_verb(capsys, wedge_path):
    data = run_json(capsys, ["strictify", "--model", wedge_path])
    assert model_from_dict(data) == build_example("wedge_strict")


def test_dualize_verb(capsys, wedge_path):
    data = run_json(capsys, ["dualize", "--model", wedge_path])
    m = model_from_dict(data)
    assert m.boxes == () and len(m.diamonds) == 1
    assert sorted(m.valuation["p"]) == ["x"]


def test_translate_verb(capsys):
    data = run_json(capsys, ["translate", "--formula", "p -> q"])
    assert data == {"formula": "q -< p"}
    assert main(["translate", "--formula", "p -> ->"]) == 1


def test_over_deep_formulas_are_one_line_errors(capsys, wedge_path):
    for text in ("[]1 " * 3000 + "p", "(" * 3000 + "p" + ")" * 3000,
                 "[]1 " * 450 + "p"):
        assert_one_line_error(
            capsys, ["eval", "--model", wedge_path, "--formula", text],
            "more than 300")
        assert_one_line_error(capsys, ["translate", "--formula", text],
                              "more than 300")


def test_the_benchmark_ladder_still_evaluates(capsys, wedge_path):
    chain = "q"
    for _ in range(150):
        chain = f"[]1 ({chain}) & q"
    data = run_json(capsys, ["eval", "--model", wedge_path,
                             "--formula", chain])
    assert data == {"truth_set": ["z"]}
    # two equal 299-deep operands, compared node by node when cached
    deep = "[]1 " * 299 + "p"
    data = run_json(capsys, ["eval", "--model", wedge_path,
                             "--formula", f"({deep}) -> ({deep})"])
    assert data == {"truth_set": ["x", "y", "z"]}


def test_closure_verb(capsys, wedge_path):
    data = run_json(capsys, ["closure", "--model", wedge_path,
                             "--generators", "valuation",
                             "--ops", "arrow,boxbar_1"])
    assert data["algebra"] == [[], ["x"], ["z"], ["x", "z"], ["y", "z"],
                               ["x", "y", "z"]]
    data = run_json(capsys, ["closure", "--model", wedge_path,
                             "--generators", '[["z"]]', "--ops", ""])
    assert data["algebra"] == [[], ["z"], ["x", "y", "z"]]


def test_closure_refuses_families_past_the_cap(capsys, tmp_path):
    path = tmp_path / "spines6.json"
    path.write_text(model_to_json(build_example("spines", (6,))))
    singletons = json.dumps([[x] for x in build_example(
        "spines", (6,)).states[:17]])
    assert_one_line_error(
        capsys, ["closure", "--model", str(path), "--generators", singletons],
        "more than 50000 sets")


def test_closure_rejects_unknown_ops(capsys, wedge_path):
    for op in ("bogus", "boxbar_0"):
        assert_one_line_error(
            capsys, ["closure", "--model", wedge_path,
                     "--generators", "valuation", "--ops", op],
            op)


def test_counts_above_the_stored_relations_are_rejected_first(
        capsys, wedge_path, strict_path):
    # wedge and wedge_strict store one box and no diamond; a count is
    # compared with them before any clause set is built from it
    huge = "1000000000"
    pair = ["--left", wedge_path, "--right", strict_path]
    for verb in ("bisim", "equiv", "hm-check"):
        assert_one_line_error(
            capsys, [verb] + pair + ["--fragment", "int", "--boxes", huge],
            "clause needs box relation 2 but the model stores 1")
        assert_one_line_error(
            capsys, [verb] + pair + ["--fragment", "intdual",
                                     "--diamonds", huge],
            "clause needs dia relation 1 but the model stores 0")
    assert_one_line_error(
        capsys, ["quotient", "--model", wedge_path, "--fragment", "int",
                 "--boxes", huge],
        "clause needs box relation 2 but the model stores 1")
    assert_one_line_error(
        capsys, ["bisim"] + pair + ["--fragment", "int", "--boxes", huge,
                                    "--flavor", "ek"],
        "clause needs box relation 2 but the model stores 1")


def test_equiv_and_hm_check_report_errors_in_the_library_order(
        capsys, strict_path):
    # synthesize checks witnessability before the counts, and the CLI
    # leaves both checks to it: a diamond over base int is refused as
    # unwitnessable although the model stores no diamond relation
    m = build_example("wedge_strict")
    with pytest.raises(PreconditionError) as exc:
        synthesize(m, m, Fragment("int", 0, 1))
    want = ("diamond-shaped witnesses need subtraction, which base 'int' "
            "lacks; no synthesis recipe is known for this combination")
    assert str(exc.value) == want
    for verb in ("equiv", "hm-check"):
        assert main([verb, "--left", strict_path, "--right", strict_path,
                     "--fragment", "int", "--diamonds", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want}\n"
    # bisim builds no witnesses, so it still reports the count
    assert_one_line_error(
        capsys, ["bisim", "--left", strict_path, "--right", strict_path,
                 "--fragment", "int", "--diamonds", "1"],
        "clause needs dia relation 1 but the model stores 0")


def test_oracle_rejects_a_huge_count_at_the_first_missing_relation(
        capsys, wedge_path):
    # the oracle resolves its connectives one at a time, so a count of
    # a billion fails at relation 2 as a count of 3 does
    for count in ("3", "1000000000"):
        assert main(["oracle", "--left", wedge_path, "--right", wedge_path,
                     "--fragment", "int", "--boxes", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: model has no box relation 2 "
                                "(flavor 'standard' stores 1)\n")


def test_closure_rejects_generators_that_are_not_state_lists(capsys,
                                                             wedge_path):
    assert_one_line_error(
        capsys, ["closure", "--model", wedge_path, "--generators", "[5]"],
        "--generators")


def test_descriptive_check_verb(capsys, wedge_path, strict_path):
    algebra = json.dumps([[], ["x"], ["z"], ["x", "z"], ["y", "z"],
                          ["x", "y", "z"]])
    data = run_json(capsys, ["descriptive-check", "--model", wedge_path,
                             "--algebra", algebra])
    assert data == {"ok": False, "pair": ["x", "z"]}
    data = run_json(capsys, ["descriptive-check", "--model", strict_path,
                             "--algebra", algebra])
    assert data == {"ok": True, "pair": None}


def test_output_flag_writes_file(tmp_path, capsys, wedge_path):
    out = tmp_path / "result.json"
    assert main(["eval", "--model", wedge_path, "--formula", "p",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"truth_set": ["y", "z"]}


def test_missing_file_is_a_clean_error(capsys):
    assert main(["validate", "--model", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_output_is_deterministic(capsys, wedge_path, strict_path):
    argv = ["bisim", "--left", wedge_path, "--right", strict_path,
            "--fragment", "biint", "--boxes", "1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_console_script_smoke():
    # the child imports the same kripkit as this process, installed or not
    src = str(Path(kripkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "kripkit.cli", "example", "--name", "wedge"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["states"] == ["x", "y", "z"]


# ---------------------------------------------------------------------------
# Arbitrary input never ends in a traceback

# The model file's keys, so that some drawn objects get past the first
# schema checks.
MODEL_KEYS = ("states", "leq_gen", "boxes", "diamonds", "valuation",
              "flavor")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(MODEL_KEYS) | st.text(max_size=6),
                      kids, max_size=4),
    max_leaves=12)


def outcome(argv) -> tuple[int, str]:
    """main's exit code, with argparse's usage exit as 2, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_clean_exit(argv) -> None:
    code, err = outcome(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "wedge.json").write_text(model_to_json(build_example("wedge")))
    return path


@settings(deadline=None)
@given(st.binary(max_size=64) | JSON_VALUES.map(
    lambda v: json.dumps(v).encode()))
def test_any_model_file_is_a_clean_exit(fuzz_dir, content):
    path = fuzz_dir / "model.json"
    path.write_bytes(content)
    check_clean_exit(["validate", "--model", str(path)])
    check_clean_exit(["eval", "--model", str(path), "--formula", "p"])


@settings(deadline=None)
@given(st.text(max_size=30))
def test_any_option_text_is_a_clean_exit(fuzz_dir, text):
    wedge = str(fuzz_dir / "wedge.json")
    check_clean_exit(["eval", "--model", wedge, f"--formula={text}"])
    check_clean_exit(["closure", "--model", wedge, f"--generators={text}"])
    check_clean_exit(["descriptive-check", "--model", wedge,
                      f"--algebra={text}"])


# ---------------------------------------------------------------------------
# The output writer: json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Escapes, the % the column writer formats with, non-ASCII, astral and
# lone surrogate text; the rest is drawn.
TEXT = st.sampled_from(['', '"', "\\", '\\"x"', "\x00\x1f\x7f\t\n", "%s",
                        "%%", "é", "\u2028", "\U0001F600", "\ud800", "a b"]) \
    | st.text(st.characters(exclude_categories=()), max_size=6)
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(-2**70, 2**70) | st.sampled_from([0, -1, 10**40])
           | st.floats())


def _containers(kids):
    rows = st.lists(kids, max_size=4)
    keyed = st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys,
                                                                  kids)),
                              min_size=1, max_size=4))
    return (rows | rows.map(tuple)
            | st.dictionaries(TEXT, kids, max_size=4)
            | keyed
            | st.lists(st.lists(TEXT, min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=4)
            | st.lists(st.integers(-5, 5) | st.booleans(), max_size=4)
            | st.lists(st.dictionaries(TEXT, kids, max_size=2), max_size=4))


JSON_OUT = st.recursive(SCALARS, _containers, max_leaves=30)


@settings(max_examples=400)
@given(JSON_OUT)
def test_the_writer_gives_the_bytes_of_json_dumps(value):
    assert _dumps(value) == reference_dumps(value)


def test_the_writer_refuses_keys_that_are_not_strings():
    for value in ({1: "a"}, {"a": [{("x",): 1}]}, [{1: 2}, {1: 3}],
                  {None: 0}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            _dumps(value)


def test_model_files_are_written_by_the_same_writer():
    for name, params in (("wedge", ()), ("spines", (3,)),
                         ("porcupine_trimmed", (2,))):
        m = build_example(name, params)
        assert model_to_json(m) == reference_dumps(model_to_dict(m))


def _stdout(argv) -> str:
    """main's stdout; argparse exits and errors leave it empty."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    return out.getvalue()


# flavor, fragment, random_model arguments
FLAVOR_ROWS = (
    ("standard", Fragment("biint", 1, 1), dict(n_boxes=1, n_diamonds=1)),
    ("fs", Fragment("int", 1, 1), {}),
    ("gpt", Fragment("biint", 1, 1, True), {}),
    ("tense", Fragment("biint", 1, 1, True), {}),
    ("h", Fragment("biint", 1, 1, True), {}),
    ("ek", Fragment("int", 2, 0), dict(n_boxes=2)),
)
assert sorted(row[0] for row in FLAVOR_ROWS) == sorted(FLAVORS)


def _flags(frag: Fragment) -> list[str]:
    return (["--fragment", frag.base, "--boxes", str(frag.n_boxes),
             "--diamonds", str(frag.m_diamonds)]
            + ["--tense"] * frag.tense)


def _every_verb(left: str, right: str, flags: list[str], formula: str):
    """argv lists that run every verb on one pair of model files."""
    one, pair = ["--model", left], ["--left", left, "--right", right]
    yield ["validate"] + one
    yield ["eval"] + one + ["--formula", formula]
    yield ["bisim"] + pair + flags
    yield ["bisim"] + pair + flags + ["--seed", "3", "--depth", "2"]
    yield ["equiv"] + pair + flags
    yield ["oracle"] + pair + flags
    yield ["oracle"] + pair + flags + ["--budget", "2"]
    yield ["hm-check"] + pair + flags
    yield ["quotient"] + one + flags
    yield ["strictify"] + one
    yield ["dualize"] + one
    yield ["translate", "--formula", formula]
    yield ["closure"] + one + ["--generators", "valuation",
                               "--ops", "arrow,coarrow,boxbar_1"]
    with open(left, encoding="utf-8") as fh:
        states = json.load(fh)["states"]
    yield ["descriptive-check"] + one + ["--algebra",
                                         json.dumps([[], states])]


def _models_under_test(tmp_path):
    """(left, right, fragment flags, formula) over the gallery pairs,
    a wedge whose state names need escapes, and random strictly
    condensed pairs of all six flavors."""
    def write(name, m):
        path = tmp_path / f"{name}.json"
        path.write_text(model_to_json(m))
        return str(path)

    gallery = [(("wedge", ()), ("wedge_strict", ()),
                ["--fragment", "biint", "--boxes", "1"])]
    gallery += [(("spines", (k,)), ("spines", (k + 1,)),
                 ["--fragment", "int", "--boxes", "1"]) for k in (1, 3)]
    gallery += [(("porcupine", (n,)), ("porcupine_trimmed", (n,)),
                 ["--fragment", "biint"]) for n in (1, 2)]
    for (name, params), (name2, params2), flags in gallery:
        yield (write(f"{name}{params}", build_example(name, params)),
               write(f"{name2}{params2}", build_example(name2, params2)),
               flags, "[]1 (p -> q) | ~p")
    data = json.loads(model_to_json(build_example("wedge")))
    odd = {"x": "x\"\\é", "y": "y\U0001F600", "z": "z%s\x01"}
    data["states"] = [odd[s] for s in data["states"]]
    data["leq_gen"] = [[odd[a], odd[b]] for a, b in data["leq_gen"]]
    data["boxes"] = [[[odd[a], odd[b]] for a, b in r] for r in data["boxes"]]
    data["valuation"] = {k: [odd[s] for s in v]
                         for k, v in data["valuation"].items()}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    yield (str(path), str(path), ["--fragment", "biint", "--boxes", "1"],
           "p -< q")
    for flavor, frag, kw in FLAVOR_ROWS:
        for i in range(3):
            rng = random.Random(80_000 + i)
            m = sampling.random_model(rng, flavor, n_states=2 + i,
                                      strict=True, **kw)
            m2 = sampling.random_model(rng, flavor, n_states=3, strict=True,
                                       **kw)
            text = str(sampling.random_formula(rng, frag, 2, ("p", "q")))
            yield (write(f"{flavor}{i}a", m), write(f"{flavor}{i}b", m2),
                   _flags(frag), text)


def test_every_verb_prints_the_bytes_of_json_dumps(tmp_path):
    printed = {}
    for left, right, flags, formula in _models_under_test(tmp_path):
        for argv in _every_verb(left, right, flags, formula):
            out = _stdout(argv)
            if out:
                assert out == reference_dumps(json.loads(out)), argv
                printed[argv[0]] = printed.get(argv[0], 0) + 1
    for name in ("wedge", "spines(4)", "omega_chain(3)",
                 "porcupine_trimmed(2)"):
        out = _stdout(["example", "--name", name])
        assert out == reference_dumps(json.loads(out))
    # every verb but example printed on several of the pairs
    assert len(printed) == 12 and min(printed.values()) >= 5, printed
