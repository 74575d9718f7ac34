"""End-to-end acceptance checks.

One test per claim from the README's acceptance list; each prints a
single PASS line when its assertions hold, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  All
randomness is seeded, so reruns are byte-identical.
"""

import random

import kripkit as kk
import kripkit.relations as rel
import test_relations_reference as ref
from kripkit import Fragment, Model, build_example, dualize, strictify, translate
from kripkit.bisim import (bisimilarity_partition, conditions_for,
                           greatest_bisimulation, is_bisimulation)
from kripkit.distinguish import (bounded_equivalence_oracle,
                                 hennessy_milner_check, synthesize,
                                 verify_witnesses)
from kripkit.genframe import close_algebra, descriptive_box_check
from kripkit.model import quotient
from kripkit.sampling import (random_classical_model, random_formula,
                              random_model)
from kripkit.semantics import dia_relation, truth_set

WEDGE = build_example("wedge")
WEDGE_STRICT = build_example("wedge_strict")

ROWS = [
    ("Int boxes", "standard", Fragment("int", 1, 0),
     dict(n_boxes=1, n_diamonds=0)),
    ("IntDual diamonds", "standard", Fragment("intdual", 0, 1),
     dict(n_boxes=0, n_diamonds=1)),
    ("BiInt both", "standard", Fragment("biint", 1, 1),
     dict(n_boxes=1, n_diamonds=1)),
    ("BiInt tense", "tense", Fragment("biint", 1, 1, True), dict()),
    ("H", "h", Fragment("biint", 1, 1, True), dict()),
    ("EK n=2", "ek", Fragment("int", 2, 0), dict(n_boxes=2)),
]


def test_c01_wedge_separates_bisimilarity_from_equivalence():
    frag = Fragment("int", 1, 0)
    conds = conditions_for(frag, "standard")
    fix, _ = greatest_bisimulation(WEDGE, WEDGE_STRICT, conds)
    assert sorted(fix) == [("y", "y"), ("z", "z")]
    assert ("x", "x") not in fix
    oracle, exact = bounded_equivalence_oracle(WEDGE, WEDGE_STRICT, frag)
    assert exact
    assert sorted(oracle) == [("x", "x"), ("y", "y"), ("z", "z")]
    print("criterion 01 PASS: wedge pair is logically equivalent at (x, x) "
          "yet not bisimilar")


def test_c02_strictify_preserves_every_truth_set():
    checked = 0
    for flavor, frag, kw in (
            ("standard", Fragment("biint", 1, 1),
             dict(n_boxes=1, n_diamonds=1)),
            ("gpt", Fragment("biint", 1, 1, True), dict())):
        for seed in range(200):
            rng = random.Random(20_000 + seed)
            m = random_model(rng, flavor, n_states=4 + seed % 5,
                             atoms=("p", "q", "r"), **kw)
            ms = strictify(m)
            report = ms.validate()
            assert report.ok and report.strictly_condensed, (flavor, seed)
            for _ in range(50):
                f = random_formula(rng, frag, 3)
                assert truth_set(f, m) == truth_set(f, ms), \
                    (flavor, seed, str(f))
                checked += 1
    print(f"criterion 02 PASS: strictify kept {checked} truth sets intact "
          "across 200 standard and 200 gpt models")


def test_c03_duality_mirrors_evaluation():
    frag = Fragment("biint", 1, 1)
    checked = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        m = random_model(rng, "standard", n_states=4 + seed % 5, n_boxes=1,
                         n_diamonds=1, atoms=("p", "q", "r"))
        md = dualize(m)
        assert md.validate().ok, seed
        assert dualize(md) == m
        for _ in range(50):
            f = random_formula(rng, frag, 3)
            assert truth_set(f, m) == \
                m.state_set - truth_set(translate(f), md), (seed, str(f))
            checked += 1
    rng = random.Random(31_000)
    big = Fragment("biint", 2, 2, True)
    for _ in range(1000):
        f = random_formula(rng, big, 4)
        assert translate(translate(f)) == f
    print(f"criterion 03 PASS: {checked} dual evaluations matched and "
          "1000 translations folded back")


def test_c04_hennessy_milner_on_all_fragment_rows():
    for label, flavor, frag, kw in ROWS:
        for i in range(100):
            rng = random.Random(40_000 + i)
            n = 4 + (i % 2)
            m = random_model(rng, flavor, n_states=n, strict=True, **kw)
            m2 = random_model(rng, flavor, n_states=n, strict=True, **kw)
            report = hennessy_milner_check(m, m2, frag)
            assert report.passed, (label, i, report.problems)
    print("criterion 04 PASS: hennessy-milner held on 100 strict pairs "
          "for each of the 6 fragment rows")


def test_c05_fixpoint_pairs_agree_on_sampled_formulas():
    for label, flavor, frag, kw in ROWS:
        conds = conditions_for(frag, flavor)
        for i in range(10):
            rng = random.Random(50_000 + i)
            m = random_model(rng, flavor, n_states=5, strict=True, **kw)
            q, _ = quotient(m, bisimilarity_partition(m, conds),
                            conditions=conds)
            fix, _ = greatest_bisimulation(m, q, conds)
            assert fix, (label, i)
            for _ in range(100):
                f = random_formula(rng, frag, 4,
                                   allow_ck=(flavor == "ek"))
                left, right = truth_set(f, m), truth_set(f, q)
                for (x, y) in fix:
                    assert (x in left) == (y in right), (label, i, str(f))
    print("criterion 05 PASS: every pair of each computed fixpoint agreed "
          "on 100 sampled formulas")


def test_c06_spines_and_porcupines():
    frag = Fragment("int", 1, 0)
    for k in range(1, 5):
        m, m2 = build_example("spines", (k,)), build_example("spines", (k + 1,))
        fix, wits = synthesize(m, m2, frag)
        assert ("r", "r") not in fix, k
        assert verify_witnesses(wits, m, m2) == [], k
        root = next(w for w in wits if w.pair == ("r", "r"))
        assert kk.nesting_depth(root.formula) <= k + 1, k
        tower = kk.Bot()
        for _ in range(k + 1):
            tower = kk.Box(1, tower)
        assert "r" in truth_set(tower, m) and "r" not in truth_set(tower, m2)

    dual_frag = Fragment("biint", 0, 0)
    for n in range(2, 5):
        m = build_example("porcupine", (n,))
        t = build_example("porcupine_trimmed", (n,))
        fix, wits = synthesize(m, t, dual_frag)
        assert ("x", "x") not in fix, n
        assert verify_witnesses(wits, m, t) == [], n
    print("criterion 06 PASS: spine towers []^(k+1) F and porcupine "
          "witnesses separated every pair")


def test_c07_quotients_are_bisimulation_maps_and_idempotent():
    flavors = [("standard", Fragment("biint", 2, 1),
                dict(n_boxes=2, n_diamonds=1)),
               ("tense", Fragment("biint", 1, 1, True), dict()),
               ("h", Fragment("biint", 1, 1, True), dict()),
               ("ek", Fragment("int", 2, 0), dict(n_boxes=2))]
    for i in range(100):
        flavor, frag, kw = flavors[i % len(flavors)]
        rng = random.Random(70_000 + i)
        m = random_model(rng, flavor, n_states=6, strict=True, **kw)
        conds = conditions_for(frag, flavor)
        part = bisimilarity_partition(m, conds)
        q, mapping = quotient(m, part, conditions=conds)
        assert q.validate().ok, i
        assert is_bisimulation(frozenset(mapping.items()), m, q, conds) \
            == [], i
        q2, mapping2 = quotient(q, bisimilarity_partition(q, conds),
                                conditions=conds)
        assert q2 == q and all(mapping2[s] == s for s in q.states), i
    print("criterion 07 PASS: 100 quotient maps were bisimulations and "
          "quotienting twice changed nothing")


def _naive_classical_bisimulation(m, m2):
    """Textbook partition refinement over plain Kripke structures,
    written independently of the library's game-based refinement."""
    atoms = set(m.atoms) | set(m2.atoms)
    pairs = {(x, y)
             for x in m.states for y in m2.states
             if all((x in m.valuation.get(a, frozenset()))
                    == (y in m2.valuation.get(a, frozenset()))
                    for a in atoms)}
    succ1 = [ref.successors(r) for r in m.boxes]
    succ2 = [ref.successors(r) for r in m2.boxes]
    changed = True
    while changed:
        changed = False
        for (x, y) in sorted(pairs):
            good = True
            for i in range(len(m.boxes)):
                if not all(any((t, u) in pairs
                               for u in succ2[i].get(y, set()))
                           for t in succ1[i].get(x, set())):
                    good = False
                if not all(any((t, u) in pairs
                               for t in succ1[i].get(x, set()))
                           for u in succ2[i].get(y, set())):
                    good = False
            if not good:
                pairs.discard((x, y))
                changed = True
    return frozenset(pairs)


def test_c08_identity_order_models_recover_classical_bisimilarity():
    conds = conditions_for(Fragment("int", 1, 0), "standard")
    for i in range(50):
        rng = random.Random(80_000 + i)
        m = random_classical_model(rng, n_states=5, n_boxes=1,
                                   atoms=("p", "q"))
        m2 = random_classical_model(rng, n_states=5, n_boxes=1,
                                    atoms=("p", "q"))
        fix, _ = greatest_bisimulation(m, m2, conds)
        assert fix == _naive_classical_bisimulation(m, m2), i
        self_fix, _ = greatest_bisimulation(m, m, conds)
        assert self_fix == _naive_classical_bisimulation(m, m), i
    print("criterion 08 PASS: on 100 identity-order models the game "
          "fixpoint equaled naive classical partition refinement")


def test_c09_ck_unfolding_and_h_left_converse():
    frag = Fragment("int", 2, 0)
    for i in range(50):
        rng = random.Random(90_000 + i)
        m = random_model(rng, "ek", n_states=5, n_boxes=2,
                         atoms=("p", "q"))
        for _ in range(20):
            f = random_formula(rng, frag, 2, allow_ck=True)
            ck = kk.Ck(f)
            unfolded = kk.And(kk.Box(1, kk.And(f, ck)),
                              kk.Box(2, kk.And(f, ck)))
            assert truth_set(ck, m) == truth_set(unfolded, m), (i, str(f))

    h_frag = Fragment("biint", 1, 1, True)
    for i in range(50):
        rng = random.Random(91_000 + i)
        m = random_model(rng, "h", n_states=5, atoms=("p", "q"))
        mirror = rel.compose_all(rel.converse(m.leq), m.boxes[0],
                                 rel.converse(m.leq))
        assert dia_relation(m, 1) == mirror, i
        succ = ref.successors(mirror)
        for _ in range(20):
            f = random_formula(rng, h_frag, 2)
            inner = truth_set(f, m)
            naive = frozenset(x for x in m.states
                              if succ.get(x, set()) & inner)
            assert truth_set(kk.Dia(1, f), m) == naive, (i, str(f))
    print("criterion 09 PASS: C unfolded exactly on 50 ek models and the "
          "h diamond matched its left converse on 50 models")


def test_c10_descriptive_box_check():
    for m, expected in ((WEDGE, (False, ("x", "z"))),
                        (WEDGE_STRICT, (True, None))):
        algebra = close_algebra(m, [m.valuation["p"], m.valuation["q"]],
                                ["arrow", "boxbar_1"])
        assert descriptive_box_check(m, algebra) == expected
    print("criterion 10 PASS: the wedge algebra rediscovers the missing "
          "(x, z) edge and the strict wedge needs none")
